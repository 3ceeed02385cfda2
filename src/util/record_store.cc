/**
 * @file
 * Record frame, directory and payload reader.
 */

#include "util/record_store.hh"

#include <algorithm>
#include <cerrno>
#include <cstring>

#include <sys/stat.h>

#include "util/hash.hh"

namespace cactid::util {

bool
RecordStore::ensureDir(std::string *err) const
{
    if (::mkdir(dir_.c_str(), 0755) == 0)
        return true;
    int code = errno;
    struct stat st;
    if (code == EEXIST) {
        if (::stat(dir_.c_str(), &st) == 0 && S_ISDIR(st.st_mode))
            return true;
        code = ENOTDIR;
    }
    if (err)
        *err = "cannot create directory " + dir_ + ": " +
               std::strerror(code);
    return false;
}

std::string
RecordStore::seal(std::string_view payload) const
{
    std::string out = magic_ + "\n" + std::string(payload);
    out += "crc " + hex16(fnv1a64(out)) + "\n";
    return out;
}

RecordReader::RecordReader(std::string_view bytes,
                           std::string_view magic)
{
    // Integrity first: the final line must be exactly "crc " + 16
    // lower-case hex + "\n", directly after a newline, and match the
    // FNV-1a of everything before it.  A torn write (partial payload,
    // missing tail) and a flipped byte both fail here.
    constexpr std::size_t kTrailer = 4 + 16 + 1;
    const std::string_view body =
        bytes.substr(0, bytes.size() - std::min(bytes.size(), kTrailer));
    const std::string_view tail = bytes.substr(body.size());
    if (tail.size() != kTrailer || !tail.starts_with("crc ") ||
        tail.back() != '\n' || (!body.empty() && body.back() != '\n')) {
        why_ = "missing crc trailer (torn record)";
        return;
    }
    const std::string_view hex = tail.substr(4, 16);
    std::uint64_t crc = 0;
    if (hex.find_first_not_of("0123456789abcdef") !=
            std::string_view::npos ||
        std::from_chars(hex.data(), hex.data() + hex.size(), crc, 16)
                .ptr != hex.data() + hex.size()) {
        why_ = "malformed crc trailer (torn record)";
        return;
    }
    if (crc != fnv1a64(body)) {
        why_ = "crc mismatch (corrupt record)";
        return;
    }

    for (std::size_t pos = 0; pos < body.size();) {
        const std::size_t nl = body.find('\n', pos);
        lines_.push_back(body.substr(pos, nl - pos));
        pos = nl + 1;
    }
    if (lines_.empty() || lines_[0] != magic) {
        why_ = "unrecognized version header";
        return;
    }
    next_ = 1;
}

bool
RecordReader::field(std::string_view key, std::string &value)
{
    if (!ok() || next_ >= lines_.size())
        return false;
    const std::string_view line = lines_[next_];
    if (!line.starts_with(key) || line.size() == key.size() ||
        line[key.size()] != ' ')
        return false;
    value = line.substr(key.size() + 1);
    ++next_;
    return true;
}

bool
RecordReader::count(std::string_view key, std::size_t &n)
{
    std::string v;
    std::uint64_t got = 0;
    if (!field(key, v) || !Tokens(v)(got) || got > lines_.size() - next_)
        return false;
    n = static_cast<std::size_t>(got);
    return true;
}

} // namespace cactid::util
