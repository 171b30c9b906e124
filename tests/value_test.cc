// store::Value: an 8-byte copy-on-write handle. Copies share one block,
// writes detach it, an empty value holds none, and the reference count
// stays exact when threads copy one value at once.

#include <gtest/gtest.h>

#include <cstring>
#include <thread>
#include <utility>
#include <vector>

#include "src/store/types.h"
#include "tests/alloc_counter.h"

namespace xenic::store {
namespace {

TEST(ValueTest, CopySharesTheBlock) {
  const Value a(16, 1);
  const uint64_t before = OperatorNewCalls();
  const Value b = a;
  Value c;
  c = b;
  EXPECT_EQ(OperatorNewCalls(), before);
  EXPECT_EQ(a.data(), b.data());
  EXPECT_EQ(a.data(), c.data());
  EXPECT_EQ(a.use_count(), 3u);
}

TEST(ValueTest, WriteThroughACopyDetaches) {
  const Value a(16, 1);
  Value b = a;
  PutU64(b, 0, 42);
  EXPECT_NE(a.data(), b.data());
  EXPECT_EQ(GetU64(b, 0), 42u);
  EXPECT_EQ(GetU64(a, 0), 0x0101010101010101u);
  EXPECT_EQ(a[8], 1);
  EXPECT_EQ(b[8], 1);
  EXPECT_EQ(a.use_count(), 1u);
  EXPECT_EQ(b.use_count(), 1u);
}

TEST(ValueTest, SoleOwnerWritesInPlace) {
  Value a(16, 0);
  const uint8_t* bytes = a.data();
  const uint64_t before = OperatorNewCalls();
  PutI64(a, 8, -7);
  EXPECT_EQ(OperatorNewCalls(), before);
  EXPECT_EQ(a.data(), bytes);
  EXPECT_EQ(GetI64(a, 8), -7);
}

TEST(ValueTest, EmptyValueAllocatesNothing) {
  const uint64_t before = OperatorNewCalls();
  Value a;
  Value b(0, 7);
  const std::vector<uint8_t> none;
  Value c(none.begin(), none.end());
  Value d = a;
  EXPECT_EQ(OperatorNewCalls(), before);
  for (const Value* v : {&a, &b, &c, &d}) {
    EXPECT_TRUE(v->empty());
    EXPECT_EQ(v->size(), 0u);
    EXPECT_EQ(v->use_count(), 0u);
    EXPECT_EQ(v->begin(), v->end());
  }
  EXPECT_EQ(a.mutable_data(), nullptr);
}

TEST(ValueTest, FromImageSharesTheCopiedHandlesBlock) {
  // A byte copy of a handle (a DMA image of a table slot) takes no
  // reference; reading it back shares the block without allocating.
  const Value a(16, 1);
  uint8_t image[sizeof(Value)];
  std::memcpy(image, static_cast<const void*>(&a), sizeof(image));
  EXPECT_EQ(a.use_count(), 1u);
  const uint64_t before = OperatorNewCalls();
  const Value b = Value::FromImage(image);
  EXPECT_EQ(OperatorNewCalls(), before);
  EXPECT_EQ(b.data(), a.data());
  EXPECT_EQ(a.use_count(), 2u);
  const Value none;
  std::memcpy(image, static_cast<const void*>(&none), sizeof(image));
  EXPECT_TRUE(Value::FromImage(image).empty());
}

TEST(ValueTest, EqualityComparesBytes) {
  const std::vector<uint8_t> bytes = {1, 2, 3};
  const Value a(bytes.begin(), bytes.end());
  const Value b(bytes.begin(), bytes.end());
  EXPECT_NE(a.data(), b.data());
  EXPECT_EQ(a, b);
  EXPECT_EQ(a, a);
  EXPECT_NE(a, Value(3, 1));
  EXPECT_NE(a, Value(bytes.begin(), bytes.end() - 1));
  EXPECT_NE(a, Value());
  EXPECT_EQ(Value(), Value(0, 9));
}

TEST(ValueTest, MovesTransferTheBlock) {
  Value a(16, 5);
  const uint8_t* bytes = a.data();
  Value b = std::move(a);
  EXPECT_EQ(b.data(), bytes);
  EXPECT_EQ(b.use_count(), 1u);
  EXPECT_TRUE(a.empty());  // NOLINT(bugprone-use-after-move): moved-from is empty
  Value c(4, 1);
  c = std::move(b);
  EXPECT_EQ(c.data(), bytes);
  EXPECT_EQ(c.use_count(), 1u);
}

TEST(ValueTest, SelfAssignmentKeepsTheValue) {
  Value a(16, 3);
  const uint8_t* bytes = a.data();
  Value& alias = a;
  a = alias;
  EXPECT_EQ(a.data(), bytes);
  EXPECT_EQ(a.use_count(), 1u);
  a = std::move(alias);
  EXPECT_EQ(a.data(), bytes);
  EXPECT_EQ(a.use_count(), 1u);
  EXPECT_EQ(a, Value(16, 3));
}

TEST(ValueTest, ConcurrentCopiesKeepTheCountExact) {
  const Value shared(64, 9);
  auto churn = [&shared] {
    for (int i = 0; i < 100000; ++i) {
      Value copy = shared;
      Value again = copy;
      copy = Value();
    }
  };
  std::thread t1(churn);
  std::thread t2(churn);
  t1.join();
  t2.join();
  EXPECT_EQ(shared.use_count(), 1u);
  EXPECT_EQ(shared, Value(64, 9));
}

}  // namespace
}  // namespace xenic::store
