// Thin CephFS-style file client: the POSIX-ish face of the stack (the
// "file" API of the paper's Figure 1). Metadata (inodes, sizes) lives in
// the metadata service; file data stripes over RADOS objects named by the
// inode number, exactly the split CephFS uses.
#ifndef MALACOLOGY_CEPHFS_FILE_CLIENT_H_
#define MALACOLOGY_CEPHFS_FILE_CLIENT_H_

#include <functional>
#include <string>

#include "src/mds/mds_client.h"
#include "src/rados/client.h"
#include "src/rados/striper.h"

namespace mal::cephfs {

struct FileClientOptions {
  uint64_t object_size = 64 * 1024;  // file data stripe unit
};

class FileClient {
 public:
  using DoneHandler = std::function<void(mal::Status)>;
  using DataHandler = std::function<void(mal::Status, const mal::Buffer&)>;
  using StatHandler = std::function<void(mal::Status, const mds::Inode&)>;

  FileClient(mds::MdsClient* mds, rados::RadosClient* rados,
             FileClientOptions options = {})
      : mds_(mds), rados_(rados), options_(options) {}

  void Mkdir(const std::string& path, DoneHandler on_done) {
    mds_->Mkdir(path, std::move(on_done));
  }

  // Whole-file write: creates the inode if needed, stripes the data into
  // RADOS, records the size in the inode.
  void WriteFile(const std::string& path, mal::Buffer data, DoneHandler on_done);

  // Whole-file read: resolves the inode, gathers the stripes.
  void ReadFile(const std::string& path, DataHandler on_data);

  void Stat(const std::string& path, StatHandler on_stat);
  void Unlink(const std::string& path, DoneHandler on_done);

 private:
  std::string DataPrefix(uint64_t ino) const { return "file." + std::to_string(ino); }
  void WriteData(uint64_t ino, std::shared_ptr<mal::Buffer> data, const std::string& path,
                 DoneHandler on_done);

  mds::MdsClient* mds_;
  rados::RadosClient* rados_;
  FileClientOptions options_;
};

}  // namespace mal::cephfs

#endif  // MALACOLOGY_CEPHFS_FILE_CLIENT_H_
