// Crash recovery for the streaming write path: the single code path that
// repairs a table after a writer died (or aborted — the writer never
// cleans up after itself, see write/streaming_writer.h).
//
// The protocol makes recovery a pure function of the store's contents:
//
//   intent with version V <= committed       the version is already
//                                            published (or superseded);
//                                            the intent is garbage.
//   intent V > committed, phase = kStaging   the writer died before all
//                                            contents were staged — the
//                                            version can never complete.
//                                            Roll BACK: abort its multipart
//                                            uploads, delete its staged
//                                            objects, drop the intent.
//   intent V > committed, phase = kStaged    every object's bytes were
//                                            fully uploaded and the intent
//                                            records each expected size and
//                                            CRC32C. Roll FORWARD: complete
//                                            any multipart upload the writer
//                                            didn't get to (this is what
//                                            makes the uploads *resumable*),
//                                            verify every object against the
//                                            intent, and publish the version
//                                            with the same manifest Put the
//                                            writer would have issued. If
//                                            verification fails the version
//                                            is damaged and rolls back
//                                            instead.
//   versioned keys/uploads above the final   orphans from a writer that
//   committed version with no intent         died before journaling (or
//                                            whose intent was unreadable) —
//                                            garbage-collected.
//
// Fsck is idempotent: running it again (including on a clean store) is a
// no-op, and re-running after it was itself interrupted converges to the
// same either-old-or-new outcome — the crash matrix in
// tests/writer_test.cc proves this at every writer crash point.
//
// `btrtool fsck [--repair]` is the CLI entry point; without --repair the
// same analysis runs read-only and reports what it would do.
#ifndef BTR_WRITE_RECOVERY_H_
#define BTR_WRITE_RECOVERY_H_

#include <string>
#include <vector>

#include "exec/retry.h"
#include "s3sim/object_store.h"
#include "util/status.h"

namespace btr::write {

struct FsckOptions {
  // Mutate the store (complete/abort uploads, delete objects, swap the
  // manifest). When false, Fsck is read-only analysis: the report lists
  // what repair would do and `clean` is false if anything needs doing.
  bool repair = false;
  // Additionally deep-check the *committed* version: parse its metadata,
  // zone map and column files, check that the metadata's block framing
  // equals each column header, and verify every block CRC. Catches bit
  // rot that no intent record covers.
  bool verify_committed = false;
  // Retry discipline for the GETs/PUTs recovery issues against a store
  // that may still be throwing transient faults.
  exec::RetryPolicy retry;
};

struct FsckReport {
  u64 committed_version_before = 0;
  u64 committed_version_after = 0;
  u32 intents_seen = 0;
  u32 rolled_forward = 0;    // staged versions published by recovery
  u32 rolled_back = 0;       // staging/damaged versions discarded
  u32 uploads_completed = 0; // interrupted multipart uploads finished
  u32 uploads_aborted = 0;
  u32 objects_deleted = 0;   // staged/orphaned objects GC'd
  u32 intents_deleted = 0;
  u32 orphans_deleted = 0;   // versioned keys/uploads with no intent
  u32 verify_failures = 0;   // size/CRC mismatches found
  // Human-readable log of findings and (in repair mode) actions taken.
  std::vector<std::string> notes;
  // True when the store needed nothing: no stray intents, uploads or
  // orphans (and, with verify_committed, the committed version checks
  // out). In repair mode, true means the store was already clean.
  bool clean = true;
};

// Analyzes (and with options.repair, repairs) table `table` under key
// prefix `prefix`. Returns non-OK only when recovery itself could not
// make progress (e.g. the store kept failing past the retry budget);
// inconsistencies it can classify are reported in `report`, not as
// errors. Safe to re-run at any time.
Status Fsck(s3sim::ObjectStore* store, const std::string& prefix,
            const std::string& table, const FsckOptions& options,
            FsckReport* report);

}  // namespace btr::write

#endif  // BTR_WRITE_RECOVERY_H_
