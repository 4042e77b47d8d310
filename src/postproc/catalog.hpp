// Post-processing of Damaris output (the consumer side of §I's
// motivation: "reading such a huge number of files for post-processing
// and visualization becomes intractable" — the per-node gathered files
// keep this tractable).
//
// A Catalog scans a directory of DH5 files and indexes every dataset by
// its ⟨name, iteration, source⟩ tuple, regardless of how the datasets
// are spread over files (one file per process, per node, or per
// dedicated core). assemble_field() then reconstructs the global 3-D
// array of one variable at one iteration from the per-source subdomain
// blocks of a CM1-style px × py domain decomposition.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "format/dh5.hpp"

namespace dmr::postproc {

class Catalog {
 public:
  struct Entry {
    std::string file;
    std::size_t dataset_index = 0;  // within the file
    std::uint64_t header_offset = 0;  // of its "DSET" header in the file
    format::DatasetInfo info;
    std::uint64_t raw_size = 0;
    std::uint64_t stored_size = 0;
    bool compressed = false;
  };

  /// Scans `dir` (non-recursively) for *.dh5 files and indexes their
  /// datasets. Unreadable files fail the scan — an output directory with
  /// a corrupt file should be noticed, not silently skipped.
  static Result<Catalog> scan(const std::string& dir);

  const std::vector<Entry>& entries() const { return entries_; }
  std::size_t num_files() const { return files_; }

  /// Distinct variable names, sorted.
  std::vector<std::string> variables() const;
  /// Distinct iterations, sorted ascending.
  std::vector<std::int64_t> iterations() const;

  /// All blocks of one variable at one iteration (one per source),
  /// sorted by source.
  std::vector<const Entry*> find(const std::string& variable,
                                 std::int64_t iteration) const;

  /// Reads, CRC-checks and decodes one entry's payload: one open of its
  /// file, one header parse, one payload read. Safe to call concurrently.
  Result<std::vector<std::byte>> read(const Entry& entry) const;

  /// Total raw vs stored bytes across the catalog (compression summary).
  std::uint64_t total_raw_bytes() const;
  std::uint64_t total_stored_bytes() const;

 private:
  std::vector<Entry> entries_;
  std::size_t files_ = 0;
};

/// A reassembled global field, k-fastest layout (matches
/// Cm1Solver::pack_field).
struct AssembledField {
  std::uint64_t nx = 0, ny = 0, nz = 0;
  std::vector<float> data;  // size nx*ny*nz, index (i*ny + j)*nz + k

  float at(std::uint64_t i, std::uint64_t j, std::uint64_t k) const {
    return data[(i * ny + j) * nz + k];
  }
  float min() const;
  float max() const;
  double mean() const;
};

/// Reassembles variable `name` at `iteration` from per-source subdomain
/// blocks laid out on a px × py process grid (source = cy * px + cx,
/// each block's layout = {lx, ly, lz}, float32). Fails if sources are
/// missing, duplicated, shaped inconsistently or not float32.
Result<AssembledField> assemble_field(const Catalog& catalog,
                                      const std::string& name,
                                      std::int64_t iteration, int px,
                                      int py);

}  // namespace dmr::postproc
