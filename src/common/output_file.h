// One way for the CLI tools to write an export (a JSON or OpenMetrics
// document next to the run): write it and name it on stderr. Exports are
// best effort, as they always were: a path that cannot be opened is
// skipped.

#ifndef SRC_COMMON_OUTPUT_FILE_H_
#define SRC_COMMON_OUTPUT_FILE_H_

#include <cstdio>
#include <string>

namespace xenic {

inline void WriteOutputFile(const std::string& path, const std::string& text) {
  if (std::FILE* f = std::fopen(path.c_str(), "w"); f != nullptr) {
    std::fwrite(text.data(), 1, text.size(), f);
    std::fclose(f);
    std::fprintf(stderr, "wrote %s\n", path.c_str());
  }
}

}  // namespace xenic

#endif  // SRC_COMMON_OUTPUT_FILE_H_
