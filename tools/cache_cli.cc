/**
 * @file
 * --cache / --cache-dir wiring.
 */

#include "tools/cache_cli.hh"

#include <memory>

#include "core/solve_cache.hh"

namespace cactid::tools {

namespace {
std::unique_ptr<SolveCache> g_installed;
} // namespace

bool
installSolveCache(const std::string &mode, const std::string &dir,
                  std::string *err)
{
    if (mode != "" && mode != "on" && mode != "off") {
        if (err)
            *err = "--cache must be on or off (got " + mode + ")";
        return false;
    }
    if (mode == "off" && !dir.empty()) {
        if (err)
            *err = "--cache off cannot be combined with --cache-dir";
        return false;
    }
    const bool enabled = mode == "on" || (mode == "" && !dir.empty());
    if (!enabled)
        return true; // default: no cache, exactly as before
    SolveCacheConfig cfg;
    cfg.diskDir = dir;
    auto cache = std::make_unique<SolveCache>(std::move(cfg));
    if (!cache->diskError().empty()) {
        if (err)
            *err = "--cache-dir: " + cache->diskError();
        return false;
    }
    g_installed = std::move(cache);
    setGlobalSolveCache(g_installed.get());
    return true;
}

SolveCache *
installedSolveCache()
{
    return g_installed.get();
}

} // namespace cactid::tools
