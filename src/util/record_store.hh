/**
 * @file
 * The one on-disk record discipline: the sweep checkpoint
 * (`cactid-ckpt-v1`, sim/resilience.hh) and the solve cache's disk
 * tier (`cactid-cache-v1`, core/solve_cache.hh) are codecs over it.
 *
 * A record is text: a `<magic>` first line, `key value` payload lines,
 * and the exact final line `crc <16 hex>\n`, the FNV-1a of everything
 * before it.  Records live one per file under a directory, are written
 * atomically (util/atomic_file.hh), and load as Missing, Rejected
 * (torn, corrupt, alien or stale, with a one-line reason: recompute
 * it) or Loaded.
 */

#ifndef CACTID_UTIL_RECORD_STORE_HH
#define CACTID_UTIL_RECORD_STORE_HH

#include <charconv>
#include <concepts>
#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "obs/numfmt.hh"
#include "util/atomic_file.hh"

namespace cactid::util {

/**
 * The payload lines of one record, read front to back once its frame
 * checks out.  A count may not promise more entries than there are
 * lines left, so a lying count is a reject, not an allocation.
 */
class RecordReader
{
  public:
    /**
     * Check the crc trailer and the @p magic first line; on failure
     * ok() is false and why() names the defect.  The reader keeps
     * views into @p bytes, which must outlive it.
     */
    RecordReader(std::string_view bytes, std::string_view magic);

    bool ok() const { return why_.empty(); }
    const std::string &why() const { return why_; }

    /** Next line must be `key value`; @p value is the rest. */
    bool field(std::string_view key, std::string &value);

    /** Next line must be `key N` with N <= the lines left. */
    bool count(std::string_view key, std::size_t &n);

  private:
    std::vector<std::string_view> lines_;
    std::size_t next_ = 0;
    std::string why_;
};

/** A directory of framed records sharing one magic line. */
class RecordStore
{
  public:
    /** Outcome of loading or decoding one record. */
    enum class Load : std::uint8_t { Missing, Rejected, Loaded };

    /** @p dir may be empty for a codec-only (in-memory) store. */
    RecordStore(std::string dir, std::string magic)
        : dir_(std::move(dir)), magic_(std::move(magic))
    {}

    /**
     * Create the directory (an existing one is fine); on failure
     * @p err receives `cannot create directory <dir>: <reason>`.
     */
    bool ensureDir(std::string *err = nullptr) const;

    std::string
    path(std::string_view name) const
    {
        return dir_ + "/" + std::string(name);
    }

    /** Frame @p payload: magic line, payload, crc trailer. */
    std::string seal(std::string_view payload) const;

    /** Check the frame of @p bytes and read its payload lines. */
    RecordReader
    open(std::string_view bytes) const
    {
        return RecordReader(bytes, magic_);
    }

    /** Atomically write the sealed @p bytes as record @p name. */
    bool
    save(std::string_view name, const std::string &bytes,
         std::string *err = nullptr) const
    {
        return writeFileAtomic(path(name), bytes, err);
    }

    /** Missing without a readable file, else @p decode(bytes). */
    template <class Decode>
    Load
    load(std::string_view name, Decode &&decode) const
    {
        std::string bytes;
        if (!readFile(path(name), bytes))
            return Load::Missing;
        return decode(bytes);
    }

    /** Set *@p why (when non-null) to @p reason; returns Rejected. */
    static Load
    reject(std::string *why, std::string reason)
    {
        if (why)
            *why = std::move(reason);
        return Load::Rejected;
    }

    const std::string &dir() const { return dir_; }
    const std::string &magic() const { return magic_; }

  private:
    std::string dir_;
    std::string magic_;
};

/**
 * Field values joined by single spaces: integers in decimal, doubles
 * as round-trip `%.17g`, bools as 0/1.  A function object, so one
 * field-list function serves encoding (with this) and decoding (with
 * Tokens).
 */
inline constexpr struct {
    template <class... T>
    std::string
    operator()(const T &...vs) const
    {
        std::string out;
        const auto put = [&out](const auto &v) {
            if (!out.empty())
                out += ' ';
            using V = std::decay_t<decltype(v)>;
            if constexpr (std::same_as<V, bool>)
                out += v ? '1' : '0';
            else if constexpr (std::floating_point<V>)
                out += obs::fmtDouble(v);
            else
                out += std::to_string(v);
        };
        (put(vs), ...);
        return out;
    }
} joinFields{};

/** Parses the single-space-separated tokens of one field value. */
class Tokens
{
  public:
    explicit Tokens(std::string_view s) : rest_(s) {}

    /** Read the next tokens, each whole, into @p outs (see joinFields). */
    template <class... T>
    bool
    operator()(T &...outs)
    {
        return (get(outs) && ...);
    }

  private:
    template <class T>
    bool
    get(T &out)
    {
        if (rest_.empty())
            return false;
        const std::size_t sp = rest_.find(' ');
        const std::string_view tok = rest_.substr(0, sp);
        rest_ = sp == std::string_view::npos ? std::string_view()
                                             : rest_.substr(sp + 1);
        if constexpr (std::same_as<T, bool>) {
            out = tok == "1";
            return tok == "0" || tok == "1";
        } else {
            const char *end = tok.data() + tok.size();
            const auto r = std::from_chars(tok.data(), end, out);
            return !tok.empty() && r.ec == std::errc() && r.ptr == end;
        }
    }

    std::string_view rest_;
};

} // namespace cactid::util

#endif // CACTID_UTIL_RECORD_STORE_HH
