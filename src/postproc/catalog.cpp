#include "postproc/catalog.hpp"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <set>

namespace dmr::postproc {

Result<Catalog> Catalog::scan(const std::string& dir) {
  std::error_code ec;
  std::filesystem::directory_iterator it(dir, ec);
  if (ec) return io_error("cannot list " + dir + ": " + ec.message());

  std::vector<std::string> paths;
  for (const auto& de : it) {
    if (de.is_regular_file() && de.path().extension() == ".dh5") {
      paths.push_back(de.path().string());
    }
  }
  std::sort(paths.begin(), paths.end());

  Catalog cat;
  for (const std::string& path : paths) {
    auto reader = format::Dh5Reader::open(path);
    if (!reader.is_ok()) return reader.status();
    ++cat.files_;
    const auto& entries = reader.value().entries();
    for (std::size_t i = 0; i < entries.size(); ++i) {
      Entry e;
      e.file = path;
      e.dataset_index = i;
      e.header_offset = entries[i].header_offset;
      e.info = entries[i].info;
      e.raw_size = entries[i].raw_size;
      e.stored_size = entries[i].stored_size;
      e.compressed = !entries[i].codecs.empty();
      cat.entries_.push_back(std::move(e));
    }
  }
  return cat;
}

std::vector<std::string> Catalog::variables() const {
  std::set<std::string> names;
  for (const auto& e : entries_) names.insert(e.info.name);
  return {names.begin(), names.end()};
}

std::vector<std::int64_t> Catalog::iterations() const {
  std::set<std::int64_t> its;
  for (const auto& e : entries_) its.insert(e.info.iteration);
  return {its.begin(), its.end()};
}

std::vector<const Catalog::Entry*> Catalog::find(
    const std::string& variable, std::int64_t iteration) const {
  std::vector<const Entry*> out;
  for (const auto& e : entries_) {
    if (e.info.name == variable && e.info.iteration == iteration) {
      out.push_back(&e);
    }
  }
  std::sort(out.begin(), out.end(), [](const Entry* a, const Entry* b) {
    return a->info.source < b->info.source;
  });
  return out;
}

Result<std::vector<std::byte>> Catalog::read(const Entry& entry) const {
  return format::read_dataset(entry.file, entry.header_offset);
}

std::uint64_t Catalog::total_raw_bytes() const {
  std::uint64_t n = 0;
  for (const auto& e : entries_) n += e.raw_size;
  return n;
}

std::uint64_t Catalog::total_stored_bytes() const {
  std::uint64_t n = 0;
  for (const auto& e : entries_) n += e.stored_size;
  return n;
}

float AssembledField::min() const {
  float m = data.empty() ? 0.0f : data[0];
  for (float v : data) m = std::min(m, v);
  return m;
}

float AssembledField::max() const {
  float m = data.empty() ? 0.0f : data[0];
  for (float v : data) m = std::max(m, v);
  return m;
}

double AssembledField::mean() const {
  if (data.empty()) return 0.0;
  double s = 0.0;
  for (float v : data) s += v;
  return s / static_cast<double>(data.size());
}

Result<AssembledField> assemble_field(const Catalog& catalog,
                                      const std::string& name,
                                      std::int64_t iteration, int px,
                                      int py) {
  if (px < 1 || py < 1) return invalid_argument("bad process grid");
  auto blocks = catalog.find(name, iteration);
  const int expected = px * py;
  if (static_cast<int>(blocks.size()) != expected) {
    return not_found("variable '" + name + "' iteration " +
                     std::to_string(iteration) + ": found " +
                     std::to_string(blocks.size()) + " blocks, expected " +
                     std::to_string(expected));
  }

  // All blocks must agree on shape and type; sources must be 0..N-1.
  const format::Layout& ref = blocks[0]->info.layout;
  if (ref.type != format::DataType::kFloat32 || ref.dims.size() != 3) {
    return invalid_argument("assemble_field requires 3-D float32 blocks");
  }
  for (int s = 0; s < expected; ++s) {
    if (blocks[s]->info.source != s) {
      return corrupt_data("missing or duplicated source " +
                          std::to_string(s));
    }
    if (!(blocks[s]->info.layout == ref)) {
      return corrupt_data("inconsistent block shapes");
    }
  }

  const std::uint64_t lx = ref.dims[0], ly = ref.dims[1], lz = ref.dims[2];
  AssembledField field;
  field.nx = lx * static_cast<std::uint64_t>(px);
  field.ny = ly * static_cast<std::uint64_t>(py);
  field.nz = lz;
  field.data.assign(field.nx * field.ny * field.nz, 0.0f);

  for (int s = 0; s < expected; ++s) {
    auto payload = catalog.read(*blocks[s]);
    if (!payload.is_ok()) return payload.status();
    if (payload.value().size() != lx * ly * lz * sizeof(float)) {
      return corrupt_data("payload size mismatch for source " +
                          std::to_string(s));
    }
    const float* vals =
        reinterpret_cast<const float*>(payload.value().data());
    const std::uint64_t cx = static_cast<std::uint64_t>(s % px);
    const std::uint64_t cy = static_cast<std::uint64_t>(s / px);
    for (std::uint64_t i = 0; i < lx; ++i) {
      for (std::uint64_t j = 0; j < ly; ++j) {
        // One contiguous z-column at a time (k is fastest in both the
        // block and the assembled field).
        const std::uint64_t gi = cx * lx + i;
        const std::uint64_t gj = cy * ly + j;
        std::memcpy(&field.data[(gi * field.ny + gj) * field.nz],
                    &vals[(i * ly + j) * lz], lz * sizeof(float));
      }
    }
  }
  return field;
}

}  // namespace dmr::postproc
