#include "util/journal_io.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <utility>

#include "util/artifact_io.h"
#include "util/string_util.h"

namespace transer {
namespace journal {

namespace {

constexpr uint32_t kFrameFormatVersion = 1;
constexpr size_t kHeaderBytes = 12;  // magic(4) + version(4) + crc(4)

std::vector<uint8_t> EncodeHeader(const char magic[4]) {
  artifact::Encoder header;
  header.PutBytes(magic, 4);
  header.PutU32(kFrameFormatVersion);
  header.PutU32(artifact::Crc32(header.bytes().data(), header.bytes().size()));
  return header.TakeBytes();
}

/// Writes `bytes` to `path` via temp + fsync + rename + dir fsync. The
/// same publish discipline as artifact::WriteArtifact, reused for the
/// journal header (creation) and full rewrites (compaction).
Status WriteFileAtomically(const std::string& path,
                           const std::vector<uint8_t>& bytes) {
  const std::string temp_path = path + ".tmp";
  const int fd = ::open(temp_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::IoError("cannot open " + temp_path + " for writing");
  }
  size_t written = 0;
  while (written < bytes.size()) {
    const ssize_t n =
        artifact::WriteFd(fd, bytes.data() + written, bytes.size() - written);
    if (n <= 0) {
      ::close(fd);
      ::unlink(temp_path.c_str());
      return Status::IoError("failed writing " + temp_path);
    }
    written += static_cast<size_t>(n);
  }
  if (artifact::FsyncFd(fd) != 0) {
    ::close(fd);
    ::unlink(temp_path.c_str());
    return Status::IoError("failed fsyncing " + temp_path);
  }
  if (::close(fd) != 0) {
    ::unlink(temp_path.c_str());
    return Status::IoError("failed closing " + temp_path);
  }
  if (std::rename(temp_path.c_str(), path.c_str()) != 0) {
    ::unlink(temp_path.c_str());
    return Status::IoError("failed renaming " + temp_path + " over " + path);
  }
  return artifact::SyncParentDir(path);
}

/// Appends one `u32 length | payload | u32 CRC-32(payload)` frame.
void PutFrame(std::span<const uint8_t> payload, artifact::Encoder* out) {
  out->PutU32(static_cast<uint32_t>(payload.size()));
  out->PutBytes(payload.data(), payload.size());
  out->PutU32(artifact::Crc32(payload.data(), payload.size()));
}

/// Validates the 12-byte header and scans the frames of an in-memory
/// journal image. Fills `recovery` and `good_end` (end of the
/// well-formed prefix, >= kHeaderBytes). A torn tail is *reported* via
/// recovery->tail_dropped, never repaired — persisting the truncation
/// is the caller's choice. Mid-file damage is FailedPrecondition.
Status ScanJournalImage(const std::vector<uint8_t>& file,
                        const std::string& path, const char magic[4],
                        const FrameJournalOptions& options,
                        FrameRecovery* recovery, size_t* good_end_out) {
  if (file.size() < kHeaderBytes) {
    return Status::InvalidArgument(path +
                                   " is too short to be a frame journal");
  }
  if (std::memcmp(file.data(), magic, 4) != 0) {
    return Status::InvalidArgument(
        StrFormat("%s is not a '%.4s' journal", path.c_str(), magic));
  }
  if (artifact::Crc32(file.data(), 8) != artifact::LoadU32(file.data() + 8)) {
    return Status::InvalidArgument(path + ": journal header is corrupt");
  }
  const uint32_t version = artifact::LoadU32(file.data() + 4);
  if (version != kFrameFormatVersion) {
    return Status::FailedPrecondition(StrFormat(
        "%s: journal format version %u is not supported (this build "
        "reads version %u)",
        path.c_str(), version, kFrameFormatVersion));
  }

  // Frame scan. `good_end` advances over every intact frame; the first
  // damaged frame ends the scan — as a truncatable tail if nothing
  // follows it, as an error otherwise.
  size_t offset = kHeaderBytes;
  size_t good_end = kHeaderBytes;
  while (offset < file.size()) {
    bool torn = false;
    if (file.size() - offset < 4) {
      torn = true;  // not even a length field
    } else {
      const uint32_t length = artifact::LoadU32(file.data() + offset);
      if (length > options.max_frame_bytes ||
          file.size() - offset - 4 < static_cast<size_t>(length) + 4) {
        // The frame claims more bytes than exist (a mid-append crash,
        // or a flipped length field — indistinguishable, and either way
        // nothing after this point can be delimited).
        torn = true;
      } else {
        const uint8_t* payload = file.data() + offset + 4;
        const uint32_t stored_crc = artifact::LoadU32(payload + length);
        if (artifact::Crc32(payload, length) != stored_crc) {
          // A complete frame whose CRC fails: torn only if it is the
          // final frame (the fsync may not have covered its last
          // bytes); with more data after it this is mid-file damage.
          if (offset + 8 + length == file.size()) {
            torn = true;
          } else {
            return Status::FailedPrecondition(StrFormat(
                "%s: frame %zu is corrupt mid-journal (not just a torn "
                "tail)",
                path.c_str(), recovery->frames.size() + 1));
          }
        } else {
          recovery->frames.emplace_back(payload, payload + length);
          offset += 8 + static_cast<size_t>(length);
          good_end = offset;
          continue;
        }
      }
    }
    if (torn) {
      recovery->tail_dropped = true;
      recovery->dropped_bytes = file.size() - good_end;
      break;
    }
  }
  *good_end_out = good_end;
  return Status::OK();
}

}  // namespace

Result<LineRecovery> RecoverJournalLines(
    const std::string& path,
    const std::function<Status(const std::string&)>& validate) {
  LineRecovery recovery;
  std::ifstream in(path);
  if (!in.is_open()) return recovery;  // fresh journal

  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (!Trim(line).empty()) lines.push_back(line);
  }
  recovery.total_lines = lines.size();

  for (size_t i = 0; i < lines.size(); ++i) {
    const Status parsed = validate(lines[i]);
    if (parsed.ok()) {
      recovery.lines.push_back(std::move(lines[i]));
      continue;
    }
    // Only a torn *tail* is consistent with an append-only journal;
    // damage earlier in the file means it is not ours (or was edited),
    // and silently dropping completed entries would corrupt whatever
    // the journal protects.
    if (i + 1 != lines.size()) {
      return Status::FailedPrecondition(StrFormat(
          "journal %s: line %zu of %zu is corrupt (not just a torn "
          "tail): %s",
          path.c_str(), i + 1, lines.size(), parsed.message().c_str()));
    }
    recovery.tail_dropped = true;
  }
  return recovery;
}

FrameJournal::~FrameJournal() { Close(); }

FrameJournal::FrameJournal(FrameJournal&& other) noexcept
    : path_(std::move(other.path_)),
      options_(other.options_),
      fd_(other.fd_),
      write_offset_(other.write_offset_),
      frame_count_(other.frame_count_) {
  other.fd_ = -1;
}

FrameJournal& FrameJournal::operator=(FrameJournal&& other) noexcept {
  if (this != &other) {
    Close();
    path_ = std::move(other.path_);
    options_ = other.options_;
    fd_ = other.fd_;
    write_offset_ = other.write_offset_;
    frame_count_ = other.frame_count_;
    other.fd_ = -1;
  }
  return *this;
}

void FrameJournal::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Result<FrameJournal> FrameJournal::Open(const std::string& path,
                                        const char magic[4],
                                        FrameRecovery* recovery,
                                        const FrameJournalOptions& options) {
  if (path.empty()) {
    return Status::InvalidArgument("frame journal path is empty");
  }
  FrameRecovery local;
  if (recovery == nullptr) recovery = &local;
  *recovery = FrameRecovery{};

  // Create a fresh journal atomically so a crash during creation never
  // leaves a torn header behind.
  if (::access(path.c_str(), F_OK) != 0) {
    TRANSER_RETURN_IF_ERROR(WriteFileAtomically(path, EncodeHeader(magic)));
  }

  const int fd = ::open(path.c_str(), O_RDWR);
  if (fd < 0) {
    return Status::IoError("cannot open journal " + path);
  }
  FrameJournal out;
  out.path_ = path;
  out.options_ = options;
  out.fd_ = fd;

  // Read the whole file (journals the recovery path handles are the
  // compacted tail, not unbounded history).
  std::vector<uint8_t> file;
  uint8_t buffer[1 << 16];
  ssize_t n = 0;
  while ((n = ::read(fd, buffer, sizeof(buffer))) > 0) {
    file.insert(file.end(), buffer, buffer + n);
  }
  if (n < 0) {
    return Status::IoError("failed reading journal " + path);
  }

  size_t good_end = 0;
  TRANSER_RETURN_IF_ERROR(
      ScanJournalImage(file, path, magic, options, recovery, &good_end));

  if (recovery->tail_dropped) {
    // Persist the truncation so the torn bytes cannot shadow a later
    // append, then make it durable before acknowledging recovery.
    if (::ftruncate(fd, static_cast<off_t>(good_end)) != 0) {
      return Status::IoError("failed truncating torn tail of " + path);
    }
    if (artifact::FsyncFd(fd) != 0) {
      return Status::IoError("failed fsyncing truncated journal " + path);
    }
  }
  if (::lseek(fd, static_cast<off_t>(good_end), SEEK_SET) < 0) {
    return Status::IoError("failed seeking journal " + path);
  }
  out.write_offset_ = good_end;
  out.frame_count_ = recovery->frames.size();
  return out;
}

Status FrameJournal::Append(std::span<const uint8_t> payload) {
  if (fd_ < 0) {
    return Status::FailedPrecondition("journal is not open");
  }
  if (payload.size() > options_.max_frame_bytes) {
    return Status::InvalidArgument(
        StrFormat("journal frame of %zu bytes exceeds the %u-byte cap",
                  payload.size(), options_.max_frame_bytes));
  }
  artifact::Encoder encoded;
  encoded.Reserve(payload.size() + 8);
  PutFrame(payload, &encoded);
  const std::vector<uint8_t>& frame = encoded.bytes();

  // On any failure, truncate back to the previous durable prefix so the
  // on-disk journal never acknowledges a frame the caller was told
  // failed. ftruncate is best effort — if even that fails the next
  // Open's torn-tail recovery removes the partial frame.
  auto fail = [&](const std::string& what) {
    (void)::ftruncate(fd_, static_cast<off_t>(write_offset_));
    (void)::lseek(fd_, static_cast<off_t>(write_offset_), SEEK_SET);
    return Status::IoError(what + " " + path_);
  };

  size_t written = 0;
  while (written < frame.size()) {
    const ssize_t n =
        artifact::WriteFd(fd_, frame.data() + written, frame.size() - written);
    if (n <= 0) return fail("failed appending to journal");
    written += static_cast<size_t>(n);
  }
  if (artifact::FsyncFd(fd_) != 0) {
    return fail("failed fsyncing journal");
  }
  write_offset_ += frame.size();
  ++frame_count_;
  return Status::OK();
}

Status FrameJournal::Rewrite(const std::string& path, const char magic[4],
                             const std::vector<std::vector<uint8_t>>& frames,
                             const FrameJournalOptions& options) {
  artifact::Encoder file;
  const std::vector<uint8_t> header = EncodeHeader(magic);
  file.PutBytes(header.data(), header.size());
  for (const std::vector<uint8_t>& payload : frames) {
    if (payload.size() > options.max_frame_bytes) {
      return Status::InvalidArgument(
          StrFormat("journal frame of %zu bytes exceeds the %u-byte cap",
                    payload.size(), options.max_frame_bytes));
    }
    PutFrame(payload, &file);
  }
  return WriteFileAtomically(path, file.bytes());
}

Status ScanFrames(const std::string& path, const char magic[4],
                  FrameRecovery* recovery,
                  const FrameJournalOptions& options) {
  if (recovery == nullptr) {
    return Status::InvalidArgument("frame scan recovery out-param is null");
  }
  *recovery = FrameRecovery{};
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) {
    return Status::NotFound("no journal at " + path);
  }
  std::vector<uint8_t> file((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
  size_t good_end = 0;
  return ScanJournalImage(file, path, magic, options, recovery, &good_end);
}

// ---------------------------------------------------------------------
// SegmentedJournal

namespace {

constexpr char kManifestMagic[4] = {'T', 'S', 'J', 'M'};
constexpr uint32_t kManifestVersion = 1;
constexpr size_t kManifestBytes = 28;  // magic(4)+ver(4)+first(8)+last(8)+crc(4)

std::vector<uint8_t> EncodeManifest(uint64_t first_id, uint64_t last_id) {
  artifact::Encoder out;
  out.PutBytes(kManifestMagic, 4);
  out.PutU32(kManifestVersion);
  out.PutU64(first_id);
  out.PutU64(last_id);
  out.PutU32(artifact::Crc32(out.bytes().data(), out.bytes().size()));
  return out.TakeBytes();
}

Status DecodeManifest(const std::string& path,
                      const std::vector<uint8_t>& bytes, uint64_t* first_id,
                      uint64_t* last_id) {
  if (bytes.size() != kManifestBytes ||
      std::memcmp(bytes.data(), kManifestMagic, 4) != 0) {
    return Status::InvalidArgument(path + " is not a segment manifest");
  }
  if (artifact::Crc32(bytes.data(), kManifestBytes - 4) !=
      artifact::LoadU32(bytes.data() + kManifestBytes - 4)) {
    return Status::InvalidArgument(path + ": segment manifest is corrupt");
  }
  const uint32_t version = artifact::LoadU32(bytes.data() + 4);
  if (version != kManifestVersion) {
    return Status::FailedPrecondition(StrFormat(
        "%s: manifest version %u is not supported (this build reads "
        "version %u)",
        path.c_str(), version, kManifestVersion));
  }
  *first_id = artifact::LoadU64(bytes.data() + 8);
  *last_id = artifact::LoadU64(bytes.data() + 16);
  if (*first_id == 0 || *first_id > *last_id) {
    return Status::InvalidArgument(
        StrFormat("%s: manifest range [%llu, %llu] is invalid", path.c_str(),
                  static_cast<unsigned long long>(*first_id),
                  static_cast<unsigned long long>(*last_id)));
  }
  return Status::OK();
}

std::string ManifestPath(const std::string& directory,
                         const std::string& stem) {
  return directory + "/" + stem + ".manifest";
}

/// Parses `name` as `<stem>.NNNNNN.wal`; returns true and the id when it
/// matches (any digit count — the zero padding is cosmetic).
bool ParseSegmentName(const std::string& name, const std::string& stem,
                      uint64_t* id) {
  const std::string prefix = stem + ".";
  const std::string suffix = ".wal";
  if (name.size() <= prefix.size() + suffix.size()) return false;
  if (name.compare(0, prefix.size(), prefix) != 0) return false;
  if (name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0) {
    return false;
  }
  const std::string digits =
      name.substr(prefix.size(), name.size() - prefix.size() - suffix.size());
  if (digits.empty()) return false;
  uint64_t value = 0;
  for (char c : digits) {
    if (c < '0' || c > '9') return false;
    value = value * 10 + static_cast<uint64_t>(c - '0');
  }
  *id = value;
  return true;
}

}  // namespace

std::string SegmentedJournal::SegmentPath(uint64_t id) const {
  return directory_ + "/" +
         StrFormat("%s.%06llu.wal", stem_.c_str(),
                   static_cast<unsigned long long>(id));
}

Status SegmentedJournal::PublishManifest(uint64_t first_id,
                                         uint64_t last_id) {
  return WriteFileAtomically(ManifestPath(directory_, stem_),
                             EncodeManifest(first_id, last_id));
}

Status SegmentedJournal::OpenFreshSegment(uint64_t id) {
  TRANSER_ASSIGN_OR_RETURN(
      active_, FrameJournal::Open(SegmentPath(id), magic_, nullptr,
                                  options_.frame_options));
  last_id_ = id;
  return Status::OK();
}

Result<SegmentedJournal> SegmentedJournal::Open(
    const std::string& directory, const std::string& stem,
    const char magic[4], SegmentedRecovery* recovery,
    const SegmentedJournalOptions& options) {
  if (directory.empty() || stem.empty()) {
    return Status::InvalidArgument("segmented journal directory/stem empty");
  }
  SegmentedRecovery local;
  if (recovery == nullptr) recovery = &local;
  *recovery = SegmentedRecovery{};

  SegmentedJournal out;
  out.directory_ = directory;
  out.stem_ = stem;
  std::memcpy(out.magic_, magic, 4);
  out.options_ = options;

  // Reconcile the directory listing up front: segment files and stale
  // temp files present on disk, before we decide fresh-vs-existing.
  std::vector<std::pair<uint64_t, std::string>> segment_files;
  std::vector<std::string> stale_temps;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator(directory, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.compare(0, stem.size() + 1, stem + ".") != 0) continue;
    uint64_t id = 0;
    if (ParseSegmentName(name, stem, &id)) {
      segment_files.emplace_back(id, entry.path().string());
    } else if (name.size() > 4 &&
               name.compare(name.size() - 4, 4, ".tmp") == 0) {
      // A crash between temp write and rename leaves these behind; they
      // were never published, so deleting them loses nothing.
      stale_temps.push_back(entry.path().string());
    }
  }
  if (ec) {
    return Status::IoError("cannot list journal directory " + directory);
  }
  for (const std::string& temp : stale_temps) {
    if (::unlink(temp.c_str()) == 0) ++recovery->orphans_removed;
  }

  const std::string manifest_path = ManifestPath(directory, stem);
  uint64_t first_id = 1;
  uint64_t last_id = 1;
  if (::access(manifest_path.c_str(), F_OK) != 0) {
    if (!segment_files.empty()) {
      // The manifest is published before the first segment is created
      // and atomically replaced ever after, so segments without one
      // mean the directory was edited. Guessing a range here could
      // silently resurrect retention-dropped data.
      return Status::FailedPrecondition(
          StrFormat("%s: found %zu '%s' segment(s) but no manifest",
                    directory.c_str(), segment_files.size(), stem.c_str()));
    }
    // Fresh journal: manifest first, then the segment file. A crash
    // between the two leaves a manifest whose active segment is absent,
    // which recovery (below) handles by creating it empty.
    TRANSER_RETURN_IF_ERROR(out.PublishManifest(1, 1));
  } else {
    std::ifstream in(manifest_path, std::ios::binary);
    if (!in.is_open()) {
      return Status::IoError("cannot read manifest " + manifest_path);
    }
    const std::vector<uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                                     std::istreambuf_iterator<char>());
    TRANSER_RETURN_IF_ERROR(
        DecodeManifest(manifest_path, bytes, &first_id, &last_id));
  }
  out.first_id_ = first_id;

  // Delete segments outside the live range: below `first` they are
  // retention leftovers (manifest published, unlink crashed); above
  // `last` they are rotation orphans (file created, manifest crash).
  for (const auto& [id, path] : segment_files) {
    if (id < first_id || id > last_id) {
      if (::unlink(path.c_str()) == 0) ++recovery->orphans_removed;
    }
  }

  // Sealed segments first..last-1: read-only scan; any damage —
  // missing file, torn tail, bad frame — is mid-chain and fatal,
  // because entries after it exist in later segments.
  for (uint64_t id = first_id; id < last_id; ++id) {
    FrameRecovery frames;
    const std::string path = out.SegmentPath(id);
    const Status scanned =
        ScanFrames(path, magic, &frames, options.frame_options);
    if (scanned.code() == StatusCode::kNotFound) {
      return Status::FailedPrecondition(
          StrFormat("%s: sealed segment %llu is missing mid-chain",
                    directory.c_str(), static_cast<unsigned long long>(id)));
    }
    TRANSER_RETURN_IF_ERROR(scanned);
    if (frames.tail_dropped) {
      return Status::FailedPrecondition(StrFormat(
          "%s: sealed segment %llu has a torn tail mid-chain (only the "
          "last segment may be torn)",
          path.c_str(), static_cast<unsigned long long>(id)));
    }
    size_t size = kHeaderBytes;
    for (const std::vector<uint8_t>& payload : frames.frames) {
      size += payload.size() + 8;
    }
    out.sealed_bytes_.emplace_back(id, size);
    recovery->segments.push_back(
        SegmentRecovery{id, std::move(frames.frames)});
  }

  // The active (last) segment: writable open with torn-tail truncation;
  // created empty when absent (fresh journal, or rotation crash after
  // the manifest landed... which cannot happen under the rotation
  // ordering, but an absent *active* segment is still recoverable —
  // only its unacknowledged tail could have lived there).
  FrameRecovery tail;
  TRANSER_ASSIGN_OR_RETURN(
      out.active_, FrameJournal::Open(out.SegmentPath(last_id), magic, &tail,
                                      options.frame_options));
  out.last_id_ = last_id;
  recovery->tail_dropped = tail.tail_dropped;
  recovery->dropped_bytes = tail.dropped_bytes;
  recovery->segments.push_back(
      SegmentRecovery{last_id, std::move(tail.frames)});
  return out;
}

size_t SegmentedJournal::total_bytes() const {
  size_t total = active_.size_bytes();
  for (const auto& [id, size] : sealed_bytes_) total += size;
  return total;
}

Status SegmentedJournal::Rotate() {
  if (!active_.is_open()) {
    return Status::FailedPrecondition("segmented journal is not open");
  }
  const uint64_t next = last_id_ + 1;
  // Create the new segment file before publishing the manifest that
  // names it: a crash between the two leaves an orphan past `last`
  // that recovery deletes.
  auto opened = FrameJournal::Open(SegmentPath(next), magic_, nullptr,
                                   options_.frame_options);
  if (!opened.ok()) return opened.status();
  const Status published = PublishManifest(first_id_, next);
  if (!published.ok()) {
    opened.value().Close();
    (void)::unlink(SegmentPath(next).c_str());
    return published;
  }
  sealed_bytes_.emplace_back(last_id_, active_.size_bytes());
  active_.Close();
  active_ = std::move(opened).value();
  last_id_ = next;
  quarantine_pending_ = false;
  return Status::OK();
}

Status SegmentedJournal::Append(std::span<const uint8_t> payload) {
  if (!active_.is_open()) {
    return Status::FailedPrecondition("segmented journal is not open");
  }
  if (quarantine_pending_ ||
      (active_.frame_count() > 0 &&
       active_.size_bytes() >= options_.max_segment_bytes)) {
    // Either the active segment is full, or a previous append failed on
    // it: rotate so the write lands on a fresh segment. FrameJournal
    // truncated the failed append, so the sealed segment is clean.
    TRANSER_RETURN_IF_ERROR(Rotate());
  }
  const Status appended = active_.Append(payload);
  if (!appended.ok()) quarantine_pending_ = true;
  return appended;
}

Result<size_t> SegmentedJournal::DropSegmentsBefore(uint64_t keep_from_id) {
  if (!active_.is_open()) {
    return Status::FailedPrecondition("segmented journal is not open");
  }
  const uint64_t keep = std::min(keep_from_id, last_id_);
  if (keep <= first_id_) return static_cast<size_t>(0);
  // Manifest first, then unlink: a crash between leaves stale files
  // below `first` that recovery deletes. The reverse order could lose
  // the only copy of live entries.
  TRANSER_RETURN_IF_ERROR(PublishManifest(keep, last_id_));
  size_t removed = 0;
  for (uint64_t id = first_id_; id < keep; ++id) {
    if (::unlink(SegmentPath(id).c_str()) == 0) ++removed;
  }
  sealed_bytes_.erase(
      std::remove_if(sealed_bytes_.begin(), sealed_bytes_.end(),
                     [&](const auto& entry) { return entry.first < keep; }),
      sealed_bytes_.end());
  first_id_ = keep;
  return removed;
}

}  // namespace journal
}  // namespace transer
