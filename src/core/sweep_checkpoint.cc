#include "core/sweep_checkpoint.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <tuple>

#include "util/journal_io.h"
#include "util/json.h"
#include "util/string_util.h"

namespace transer {

std::string EncodeSweepCellRecord(const SweepCellRecord& record) {
  json::Writer writer;
  writer.BeginObject().Key("method").String(record.key.method)
      .Key("scenario").String(record.key.scenario)
      .Key("classifier").String(record.key.classifier)
      .Key("seed").Uint(record.seed).Key("failure").String(record.failure)
      .Key("precision").Double(record.quality.precision)
      .Key("recall").Double(record.quality.recall)
      .Key("f1").Double(record.quality.f1)
      .Key("f_star").Double(record.quality.f_star)
      .Key("runtime_seconds").Double(record.runtime_seconds).EndObject();
  return writer.str();
}

Result<SweepCellRecord> DecodeSweepCellRecord(const std::string& line) {
  TRANSER_ASSIGN_OR_RETURN(const json::Value doc, json::Parse(line));
  SweepCellRecord record;
  TRANSER_RETURN_IF_ERROR(doc.Get("method", &record.key.method));
  TRANSER_RETURN_IF_ERROR(doc.Get("scenario", &record.key.scenario));
  TRANSER_RETURN_IF_ERROR(doc.Get("classifier", &record.key.classifier));
  TRANSER_RETURN_IF_ERROR(doc.Get("seed", &record.seed));
  TRANSER_RETURN_IF_ERROR(doc.Get("failure", &record.failure));
  TRANSER_RETURN_IF_ERROR(doc.Get("precision", &record.quality.precision));
  TRANSER_RETURN_IF_ERROR(doc.Get("recall", &record.quality.recall));
  TRANSER_RETURN_IF_ERROR(doc.Get("f1", &record.quality.f1));
  TRANSER_RETURN_IF_ERROR(doc.Get("f_star", &record.quality.f_star));
  TRANSER_RETURN_IF_ERROR(
      doc.Get("runtime_seconds", &record.runtime_seconds));
  return record;
}

std::string SweepCheckpoint::IndexKey(const SweepCellKey& key) {
  // '\x1f' (unit separator) cannot appear in the component names.
  return key.method + '\x1f' + key.scenario + '\x1f' + key.classifier;
}

Result<SweepCheckpoint> SweepCheckpoint::Open(const std::string& path,
                                              RunDiagnostics* diagnostics) {
  if (path.empty()) {
    return Status::InvalidArgument("sweep checkpoint path is empty");
  }
  SweepCheckpoint checkpoint(path);

  // The torn-tail policy (only the trailing line may be corrupt; earlier
  // damage is an error) lives in the shared journal recovery helper so
  // this journal and the binary ingest WAL cannot drift apart.
  TRANSER_ASSIGN_OR_RETURN(
      const journal::LineRecovery recovery,
      journal::RecoverJournalLines(path, [](const std::string& entry) {
        return DecodeSweepCellRecord(entry).status();
      }));

  for (const std::string& entry : recovery.lines) {
    TRANSER_ASSIGN_OR_RETURN(SweepCellRecord record,
                             DecodeSweepCellRecord(entry));
    const std::string index_key = IndexKey(record.key);
    auto it = checkpoint.index_.find(index_key);
    if (it != checkpoint.index_.end()) {
      checkpoint.records_[it->second] = std::move(record);
    } else {
      checkpoint.index_[index_key] = checkpoint.records_.size();
      checkpoint.records_.push_back(std::move(record));
    }
  }

  if (recovery.tail_dropped) {
    if (diagnostics != nullptr) {
      diagnostics->Add(DegradationKind::kCheckpointTailDropped, "sweep",
                       StrFormat("dropped corrupt trailing journal line "
                                 "%zu of %s; the cell will be re-run",
                                 recovery.total_lines, path.c_str()),
                       static_cast<double>(recovery.total_lines),
                       static_cast<double>(recovery.total_lines - 1));
    }
    // Persist the truncation so a second resume does not re-report it.
    TRANSER_RETURN_IF_ERROR(checkpoint.Flush());
  }
  return checkpoint;
}

const SweepCellRecord* SweepCheckpoint::Find(const SweepCellKey& key) const {
  auto it = index_.find(IndexKey(key));
  return it == index_.end() ? nullptr : &records_[it->second];
}

Status SweepCheckpoint::Record(const SweepCellRecord& record) {
  const std::string index_key = IndexKey(record.key);
  auto it = index_.find(index_key);
  const size_t previous_size = records_.size();
  if (it != index_.end()) {
    records_[it->second] = record;
  } else {
    index_[index_key] = records_.size();
    records_.push_back(record);
  }
  Status flushed = Flush();
  if (!flushed.ok()) {
    // Keep the in-memory view consistent with the journal on disk.
    if (it == index_.end()) {
      records_.resize(previous_size);
      index_.erase(index_key);
    }
    return flushed;
  }
  return Status::OK();
}

Status SweepCheckpoint::Canonicalize() {
  std::sort(records_.begin(), records_.end(),
            [](const SweepCellRecord& a, const SweepCellRecord& b) {
              return std::tie(a.key.scenario, a.key.method,
                              a.key.classifier) <
                     std::tie(b.key.scenario, b.key.method,
                              b.key.classifier);
            });
  index_.clear();
  for (size_t i = 0; i < records_.size(); ++i) {
    index_[IndexKey(records_[i].key)] = i;
  }
  return Flush();
}

Status SweepCheckpoint::Flush() const {
  // Write the full journal to a sibling temp file and rename it into
  // place: POSIX rename is atomic, so readers (including a resume after a
  // crash right here) see either the old journal or the new one, never a
  // partial write.
  const std::string temp_path = path_ + ".tmp";
  {
    std::ofstream out(temp_path, std::ios::trunc);
    if (!out.is_open()) {
      return Status::Internal("cannot open " + temp_path + " for writing");
    }
    for (const SweepCellRecord& record : records_) {
      out << EncodeSweepCellRecord(record) << '\n';
    }
    out.flush();
    if (!out.good()) {
      return Status::Internal("failed writing " + temp_path);
    }
  }
  if (std::rename(temp_path.c_str(), path_.c_str()) != 0) {
    return Status::Internal("failed renaming " + temp_path + " over " +
                            path_);
  }
  return Status::OK();
}

}  // namespace transer
