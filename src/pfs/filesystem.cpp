#include "pfs/filesystem.hpp"

#include <algorithm>

#include "fault/fault.hpp"
#include "obs/profiler.hpp"
#include "obs/registry.hpp"

namespace paramrio::pfs {

void FileSystem::attach_observer(IoObserver* observer) {
  if (observer != nullptr && observer_ != nullptr && observer != observer_) {
    throw LogicError("attach_observer on " + name() +
                     ": another observer is already attached; detach it "
                     "with attach_observer(nullptr) first");
  }
  observer_ = observer;
}

int FileSystem::open(const std::string& path, OpenMode mode) {
  if (mode == OpenMode::kCreate) {
    const bool truncating = store_.exists(path);
    store_.create(path);
    // Truncation invalidates any cached pages of a previous file generation
    // at this path (same stale-cache hazard as remove()).
    cache_.erase(path);
    ++cache_gen_;
    if (truncating) on_truncate(path);
  } else if (!store_.exists(path)) {
    throw IoError("open(" + path + "): no such file on " + name());
  }
  int fd = next_fd_++;
  open_files_[fd] = OpenFile{path, mode != OpenMode::kRead};
  if (sim::in_simulation()) {
    sim::Proc& proc = sim::current_proc();
    if (observer_ != nullptr) {
      observer_->on_open(proc.now(), proc.global_rank(), path, mode, fd);
    }
    double cost = metadata_cost();
    if (cost > 0.0) proc.advance(cost, sim::TimeCategory::kIo);
  }
  return fd;
}

void FileSystem::close(int fd) {
  const std::string path = descriptor(fd, "close").path;
  open_files_.erase(fd);
  if (sim::in_simulation()) {
    sim::Proc& proc = sim::current_proc();
    if (observer_ != nullptr) {
      observer_->on_close(proc.now(), proc.global_rank(), path, fd);
    }
    double cost = metadata_cost();
    if (cost > 0.0) proc.advance(cost, sim::TimeCategory::kIo);
  }
}

std::uint64_t FileSystem::size(int fd) const {
  return store_.size(descriptor(fd, "size").path);
}

std::uint64_t FileSystem::read_at(int fd, std::uint64_t offset,
                                  std::span<std::byte> out) {
  OpenFile& f = descriptor_mut(fd, "read_at");
  std::uint64_t file_size = store_.size(f.path);
  if (offset > file_size || out.size() > file_size - offset) {
    throw IoError("read_at(" + f.path + ", fd " + std::to_string(fd) +
                  "): range [" + std::to_string(offset) + ", " +
                  std::to_string(offset + out.size()) + ") past EOF " +
                  std::to_string(file_size) + " on " + name());
  }
  if (!sim::in_simulation()) {  // untimed setup access
    store_.read_at(f.path, offset, out);
    return out.size();
  }
  return timed_transfer(f, fd, offset, out);
}

std::uint64_t FileSystem::write_at(int fd, std::uint64_t offset,
                                   std::span<const std::byte> data) {
  OpenFile& f = descriptor_mut(fd, "write_at");
  if (!f.writable) throw IoError("write to read-only descriptor: " + f.path);
  if (!sim::in_simulation()) {  // untimed setup access
    store_.write_at(f.path, offset, data);
    on_untimed_write(f.path, offset, data);
    return data.size();
  }
  return timed_transfer(f, fd, offset, data);
}

template <typename Byte>
std::uint64_t FileSystem::timed_transfer(OpenFile& f, int fd,
                                         std::uint64_t offset,
                                         std::span<Byte> buf) {
  // Without fs-level retry the caller sees a short transfer's prefix length
  // and every transient error; with it, one budget covers the whole call.
  if (!retry_.enabled()) return attempt(f, fd, offset, buf);
  fault::Retry(retry_, fs_retries_)
      .transfer(buf.size(), f.path, [&](std::uint64_t done) {
        return attempt(f, fd, offset + done, buf.subspan(done));
      });
  return buf.size();
}

std::uint64_t FileSystem::admit(sim::Proc& proc, const OpenFile& f,
                                bool is_write, std::uint64_t offset,
                                std::uint64_t len) {
  if (fault_hook_ == nullptr) return len;
  const fault::IoFaultAction a =
      fault_hook_->on_io(proc.global_rank(), proc.now(), is_write, f.path,
                         offset, len, server_of(f.path, offset));
  const char* const call = is_write ? "write_at(" : "read_at(";
  switch (a.kind) {
    case fault::IoFaultAction::Kind::kPass:
      break;
    case fault::IoFaultAction::Kind::kShort:
      return std::min<std::uint64_t>(a.transfer, len);
    case fault::IoFaultAction::Kind::kStall:
      proc.advance(a.stall_seconds, sim::TimeCategory::kIo);
      break;
    case fault::IoFaultAction::Kind::kTransientError:
      throw TransientIoError("injected EIO: " + (call + f.path) + ", " +
                             std::to_string(offset) + ") on " + name());
    case fault::IoFaultAction::Kind::kCrash:
      throw CrashError("injected crash: " + (call + f.path) + ") on " +
                       name());
  }
  return len;
}

std::uint64_t FileSystem::attempt(OpenFile& f, int fd, std::uint64_t offset,
                                  std::span<std::byte> out) {
  OBS_SPAN("pfs.read", sim::TimeCategory::kIo);
  sim::Proc& proc = sim::current_proc();
  const double op_start = proc.now();
  const std::uint64_t transfer =
      admit(proc, f, /*is_write=*/false, offset, out.size());
  obs::span_counter("bytes", transfer);
  store_.read_at(f.path, offset, out.first(transfer));
  account(proc, f, fd, /*is_write=*/false, offset, transfer);
  if (cache_enabled_ && transfer > 0) {
    Intervals& iv = cache_of(f);
    cache_lookups_ += 1;
    const bool hit = cache_covers(iv, offset, transfer);
    if (hit) cache_hit_lookups_ += 1;
    if (obs::detail()) {
      obs::gauge("fs:" + name() + "/cache_hit_rate",
                 static_cast<double>(cache_hit_lookups_) /
                     static_cast<double>(cache_lookups_));
      obs::gauge_int("fs:" + name() + "/cache_hit_bytes",
                     cache_hits_ + (hit ? transfer : 0));
    }
    if (hit) {
      cache_hits_ += transfer;
      proc.advance(static_cast<double>(transfer) / cache_bandwidth_,
                   sim::TimeCategory::kIo);
      obs::latency_sample("pfs.read", proc.now() - op_start);
      return transfer;
    }
    cache_insert(iv, offset, transfer);
  }
  charge(proc, f.path, offset, transfer, /*is_write=*/false);
  obs::latency_sample("pfs.read", proc.now() - op_start);
  return transfer;
}

std::uint64_t FileSystem::attempt(OpenFile& f, int fd, std::uint64_t offset,
                                  std::span<const std::byte> data) {
  OBS_SPAN("pfs.write", sim::TimeCategory::kIo);
  sim::Proc& proc = sim::current_proc();
  const double op_start = proc.now();
  const std::uint64_t transfer =
      admit(proc, f, /*is_write=*/true, offset, data.size());
  obs::span_counter("bytes", transfer);
  store_.write_at(f.path, offset, data.first(transfer));
  account(proc, f, fd, /*is_write=*/true, offset, transfer);
  if (cache_enabled_ && transfer > 0) {
    cache_insert(cache_of(f), offset, transfer);
  }
  charge(proc, f.path, offset, transfer, /*is_write=*/true);
  obs::latency_sample("pfs.write", proc.now() - op_start);
  return transfer;
}

int FileSystem::server_of(const std::string& path,
                          std::uint64_t offset) const {
  const Layout l = layout(path);
  if (l.stripe_size == 0 || l.n_servers < 1) return -1;
  return static_cast<int>(
      (offset / l.stripe_size + static_cast<std::uint64_t>(l.first_server)) %
      static_cast<std::uint64_t>(l.n_servers));
}

bool FileSystem::cache_covers(const Intervals& iv, std::uint64_t off,
                              std::uint64_t len) const {
  auto it = iv.upper_bound(off);
  if (it == iv.begin()) return false;
  --it;
  return it->second >= off + len;
}

void FileSystem::cache_insert(Intervals& iv, std::uint64_t off,
                              std::uint64_t len) {
  std::uint64_t lo = off, hi = off + len;
  // Merge with any overlapping/adjacent intervals.
  auto it = iv.upper_bound(lo);
  if (it != iv.begin()) {
    auto prev = std::prev(it);
    if (prev->second >= lo) {
      lo = prev->first;
      hi = std::max(hi, prev->second);
      it = iv.erase(prev);
    }
  }
  while (it != iv.end() && it->first <= hi) {
    hi = std::max(hi, it->second);
    it = iv.erase(it);
  }
  iv[lo] = hi;
}

void FileSystem::account(sim::Proc& proc, const OpenFile& f, int fd,
                         bool is_write, std::uint64_t offset,
                         std::uint64_t bytes) {
  (is_write ? proc.stats().io_bytes_written : proc.stats().io_bytes_read) +=
      bytes;
  proc.stats().io_requests += 1;
  JobIo& io = job_io_[proc.job()];
  if (io.requests == 0) io.name = proc.job_name();
  (is_write ? io.bytes_written : io.bytes_read) += bytes;
  io.requests += 1;
  if (observer_ != nullptr) {
    observer_->on_io(proc.now(), proc.global_rank(), is_write, f.path, offset,
                     bytes, fd);
  }
}

void FileSystem::export_counters(obs::MetricsRegistry& reg) const {
  reg.add("fs:" + name(), "cache_hit_bytes", cache_hits_);
  if (fs_retries() > 0) reg.add("fs:" + name(), "retries", fs_retries());
  // Per-tenant traffic breakdown, only in genuinely multi-job runs so every
  // single-job registry export stays byte-identical to previous releases.
  if (job_io_.size() > 1) {
    for (const auto& [job, io] : job_io_) {
      const std::string label =
          io.name.empty() ? "#" + std::to_string(job) : io.name;
      const std::string scope = "fs:" + name() + "|job:" + label;
      reg.add(scope, "bytes_read", io.bytes_read);
      reg.add(scope, "bytes_written", io.bytes_written);
      reg.add(scope, "requests", io.requests);
    }
  }
}

const FileSystem::OpenFile& FileSystem::descriptor(int fd,
                                                   const char* op) const {
  auto it = open_files_.find(fd);
  if (it == open_files_.end()) {
    throw IoError(std::string(op) + ": bad file descriptor " +
                  std::to_string(fd) + " on " + name());
  }
  return it->second;
}

FileSystem::OpenFile& FileSystem::descriptor_mut(int fd, const char* op) {
  auto it = open_files_.find(fd);
  if (it == open_files_.end()) {
    throw IoError(std::string(op) + ": bad file descriptor " +
                  std::to_string(fd) + " on " + name());
  }
  return it->second;
}

FileSystem::Intervals& FileSystem::cache_of(OpenFile& f) {
  if (f.cache_iv == nullptr || f.cache_gen != cache_gen_) {
    f.cache_iv = &cache_[f.path];
    f.cache_gen = cache_gen_;
  }
  return *f.cache_iv;
}

}  // namespace paramrio::pfs
