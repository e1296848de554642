#include "common/bytes.h"

#include <cstdio>
#include <fstream>
#include <iterator>

#include "common/posix.h"

namespace sgnn::common {

std::optional<std::string_view> StripCrcTrailer(std::string_view record) {
  if (record.size() < sizeof(uint32_t)) return std::nullopt;
  const std::string_view payload =
      record.substr(0, record.size() - sizeof(uint32_t));
  const uint32_t stored =
      ByteReader(record.substr(payload.size())).Pod<uint32_t>();
  if (Crc32(payload.data(), payload.size()) != stored) return std::nullopt;
  return payload;
}

StatusOr<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("no such file: " + path);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  if (in.bad()) return Status::IOError("read failed: " + path);
  return bytes;
}

Status WriteFileAtomic(const std::string& path, std::string_view bytes) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return Status::IOError("cannot open for write: " + tmp);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out.flush();
    if (!out) {
      out.close();
      std::remove(tmp.c_str());
      return Status::IOError("write failed: " + tmp);
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    Status status = StatusFromErrno("rename failed: " + tmp + " -> " + path);
    std::remove(tmp.c_str());
    return status;
  }
  return Status::OK();
}

}  // namespace sgnn::common
