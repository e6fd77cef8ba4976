#include "daemon/journal.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>

#include "support/log.hpp"

namespace chpo::daemon {

StateJournal::StateJournal(JournalOptions options) : options_(std::move(options)) {
  if (options_.path.empty()) return;
  fd_ = ::open(options_.path.c_str(), O_CREAT | O_WRONLY | O_APPEND, 0644);
  if (fd_ < 0) {
    log_warn("daemon", "cannot open journal {}: {} (running without crash safety)",
             options_.path, std::strerror(errno));
    return;
  }
  if (const char* env = std::getenv("CHPO_CRASH_AFTER_OP"); env != nullptr && *env != '\0')
    crash_after_ = std::strtol(env, nullptr, 10);
  if (const char* env = std::getenv("CHPO_CRASH_TORN"); env != nullptr && *env == '1')
    crash_torn_ = true;
}

StateJournal::~StateJournal() {
  if (fd_ >= 0) ::close(fd_);
}

void StateJournal::crash_hook(const std::string& bytes) {
  if (crash_after_ < 0) return;
  if (--crash_after_ > 0) return;
  // Abrupt death mid-operation: optionally tear the record in half first
  // so recovery also has to cope with a partial final write.
  if (crash_torn_) {
    json::write_all(fd_, std::string_view(bytes).substr(0, bytes.size() / 2));
  } else {
    json::write_all(fd_, bytes);
  }
  ::fsync(fd_);
  log_warn("daemon", "CHPO_CRASH_AFTER_OP hook firing: simulating kill -9");
  ::_exit(137);
}

bool StateJournal::append(const json::Value& record) {
  if (fd_ < 0) return false;
  const std::string bytes = json::encode_record(record);
  const MutexLock lock(mutex_);
  crash_hook(bytes);
  if (!json::write_all(fd_, bytes)) {
    log_warn("daemon", "journal append failed: {} (running degraded)", std::strerror(errno));
    return false;
  }
  ++appended_;
  dirty_ = true;
  return true;
}

void StateJournal::sync() {
  if (fd_ < 0) return;
  // The journal lock held across fsync IS the durability barrier (the
  // documented exemption from the blocking-call-under-lock lint rule).
  const MutexLock lock(mutex_);
  if (!dirty_) return;
  if (options_.fsync) ::fsync(fd_);
  dirty_ = false;
}

void StateJournal::reset() {
  if (fd_ < 0) return;
  const MutexLock lock(mutex_);
  if (::ftruncate(fd_, 0) != 0)
    log_warn("daemon", "journal truncate failed: {}", std::strerror(errno));
  if (options_.fsync) ::fsync(fd_);
  appended_ = 0;
  dirty_ = false;
}

json::RecordReplay StateJournal::load(const std::string& path) {
  return json::read_records(path);
}

}  // namespace chpo::daemon
