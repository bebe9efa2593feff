#include "storage/fsck.h"

#include <cstdio>
#include <utility>

#include "storage/snapshot.h"
#include "storage/wal.h"

namespace waif::storage {

FsckReport waif_fsck(const StorageBackend& backend) {
  FsckReport report;

  // Counts frames without keeping them: a fleet shard's log holds tens of
  // thousands of records.
  const WalScan wal = scan_wal(backend);
  report.wal_records = wal.record_count;
  report.wal_valid_bytes = wal.valid_bytes;
  report.wal_total_bytes = wal.total_bytes;
  report.wal_torn_tail = wal.torn_tail;
  report.wal_crc_failures = wal.crc_failures;

  bool have_latest = false;
  for (const std::string& name : backend.list()) {
    if (name == kWalBlobName) continue;
    std::uint64_t seq = 0;
    if (!parse_snapshot_name(name, &seq)) {
      ++report.unknown_blobs;
      continue;
    }
    std::vector<std::uint8_t> bytes;
    ProxySnapshot snapshot;
    if (!backend.read(name, &bytes) ||
        !decode_snapshot(std::move(bytes), &snapshot)) {
      ++report.damaged_snapshots;
      continue;
    }
    ++report.valid_snapshots;
    if (!have_latest || seq > report.latest_snapshot_seq) {
      have_latest = true;
      report.latest_snapshot_seq = seq;
      report.latest_watermark = snapshot.watermark;
    }
  }
  if (have_latest && report.latest_watermark > report.wal_records) {
    report.watermark_beyond_log = true;
  }
  return report;
}

std::string format_report(const FsckReport& report) {
  char buffer[512];
  std::snprintf(
      buffer, sizeof(buffer),
      "wal: %llu records, %zu/%zu bytes valid%s%s\n"
      "snapshots: %llu valid, %llu damaged%s\n"
      "unknown blobs: %llu\n"
      "verdict: %s\n",
      static_cast<unsigned long long>(report.wal_records),
      report.wal_valid_bytes, report.wal_total_bytes,
      report.wal_torn_tail ? ", torn tail" : "",
      report.wal_crc_failures > 0 ? ", crc failure" : "",
      static_cast<unsigned long long>(report.valid_snapshots),
      static_cast<unsigned long long>(report.damaged_snapshots),
      report.watermark_beyond_log ? ", watermark beyond log!" : "",
      static_cast<unsigned long long>(report.unknown_blobs),
      report.clean()        ? "clean"
      : report.recoverable() ? "damaged (recoverable)"
                             : "inconsistent (unrecoverable)");
  return buffer;
}

WalLineage wal_lineage(const StorageBackend& backend) {
  const FsckReport report = waif_fsck(backend);
  WalLineage lineage;
  lineage.wal_records = report.wal_records;
  lineage.has_snapshot = report.valid_snapshots > 0;
  lineage.snapshot_seq = report.latest_snapshot_seq;
  lineage.snapshot_watermark = report.latest_watermark;
  lineage.clean = report.wal_valid_bytes == report.wal_total_bytes &&
                  report.wal_crc_failures == 0 && !report.wal_torn_tail &&
                  report.damaged_snapshots == 0 &&
                  !report.watermark_beyond_log;
  return lineage;
}

}  // namespace waif::storage
