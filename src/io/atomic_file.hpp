// Crash-safe file writing and deterministic I/O fault injection.
//
// The paper's production campaigns (Section 6) run for days and survive on
// checkpoint/restart; a checkpoint writer that truncates the target in
// place turns any mid-write crash into the loss of the only restart point.
// Every checkpoint format in this repository therefore writes through
// `atomic_file_writer`: bytes go to a temp path next to the target, and
// only a successful commit() renames the temp over the target (rename(2)
// is atomic within a filesystem), so a crash at any byte leaves the
// previous checkpoint intact.
//
// `fault_policy` injects deterministic faults into this write path so
// tests can *prove* the guarantee: every injected fault is either
// invisible (the old file survives untouched) or detected on load (the
// per-section CRCs in the checkpoint format catch it with a precise
// error). Nothing here is randomized — the fault fires at an exact byte.
#pragma once

#include <cstdint>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace pcf::io {

/// Deterministic fault kinds for the checkpoint write path.
enum class fault_kind {
  none,           // no fault
  fail_open,      // creating the temp file fails
  short_write,    // bytes at file offset >= `byte` are silently dropped
  bit_flip,       // bit 0 of the byte at file offset `byte` is inverted
  crash_after_n,  // the writer "crashes" (throws injected_crash) once the
                  // write cursor would pass file offset `byte`
};

struct fault_policy {
  fault_kind kind = fault_kind::none;
  std::uint64_t byte = 0;   // file offset the fault keys on (see fault_kind)
  std::string path_match;   // fault only targets paths containing this
};

/// Install/remove the process-global fault policy (thread-safe; writers
/// snapshot the policy when they open a matching path).
void set_fault_policy(const fault_policy& policy);
void clear_fault_policy();
[[nodiscard]] fault_policy current_fault_policy();

/// RAII guard: installs a policy for one scope, clears it on exit.
class fault_injection_scope {
 public:
  explicit fault_injection_scope(const fault_policy& policy) {
    set_fault_policy(policy);
  }
  ~fault_injection_scope() { clear_fault_policy(); }
  fault_injection_scope(const fault_injection_scope&) = delete;
  fault_injection_scope& operator=(const fault_injection_scope&) = delete;
};

/// Thrown by an injected crash-after-N fault; models the process dying
/// mid-write (the target file is never touched, as with a real crash).
class injected_crash : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Write-to-temp-then-rename file writer.
///
/// The creating writer owns the temp file: commit() renames it over the
/// target, destruction without commit() removes it and leaves the target
/// untouched. For parallel single-file writes, other ranks join() the
/// in-progress temp and write their pieces at explicit offsets; only the
/// owner commits (callers order the joiners' close() before the owner's
/// commit(), e.g. with a barrier).
class atomic_file_writer {
 public:
  /// Create (truncate) the temp file for `path`.
  explicit atomic_file_writer(const std::string& path);
  /// Join the existing temp file of an in-progress write of `path`.
  [[nodiscard]] static atomic_file_writer join(const std::string& path);
  ~atomic_file_writer();
  atomic_file_writer(atomic_file_writer&& other) noexcept;
  atomic_file_writer(const atomic_file_writer&) = delete;
  atomic_file_writer& operator=(const atomic_file_writer&) = delete;
  atomic_file_writer& operator=(atomic_file_writer&&) = delete;

  /// Append `bytes` at the current cursor (fault policy applies).
  void write(const void* data, std::size_t bytes);
  /// Write `bytes` at absolute file offset `offset` (fault policy applies).
  void write_at(std::uint64_t offset, const void* data, std::size_t bytes);
  void seek(std::uint64_t offset);
  [[nodiscard]] std::uint64_t tell();

  /// Flush buffered bytes to the temp file; throws if the stream failed.
  void flush();
  /// Flush and close without committing (joiners call this before the
  /// owner commits).
  void close();
  /// Flush, close, and atomically rename the temp over the target. Owner
  /// only; after commit() the writer is inert.
  void commit();

  [[nodiscard]] const std::string& target_path() const { return path_; }
  /// The temp path used for `path` ("<path>.tmp.<pid>"). The owner
  /// creates it exclusively (O_EXCL), so writers in different processes
  /// never share a temp file; joiners in the owner's process find it.
  [[nodiscard]] static std::string temp_path(const std::string& path);

 private:
  atomic_file_writer(const std::string& path, bool owner);

  void checked_write(const void* data, std::size_t bytes);

  std::string path_, tmp_;
  std::fstream os_;
  fault_policy policy_;  // snapshot (kind == none if the path doesn't match)
  bool owner_ = true;
  bool committed_ = false;
  bool closed_ = false;
};

// --- checkpoint generation bookkeeping -------------------------------------
//
// Rotated checkpoints are named `<prefix>.g<generation><suffix>` (the
// per-rank formats append ".<rank>" as the suffix; single-file formats use
// an empty suffix). Generations are ordered by their number — the runner
// uses the step count — so "newest good" is well defined across restarts.

/// `<prefix>.g<generation>` (append the format's own suffix afterwards).
[[nodiscard]] std::string generation_path(const std::string& prefix,
                                          long generation);

/// Generation numbers g for which `<prefix>.g<g><suffix>` exists, sorted
/// ascending. Scans the prefix's directory; missing directory -> empty.
[[nodiscard]] std::vector<long> list_generations(const std::string& prefix,
                                                 const std::string& suffix);

/// Delete all but the newest `keep` generations of `<prefix>.g*<suffix>`.
void prune_generations(const std::string& prefix, const std::string& suffix,
                       int keep);

}  // namespace pcf::io
