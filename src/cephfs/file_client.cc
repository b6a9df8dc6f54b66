#include "src/cephfs/file_client.h"

namespace mal::cephfs {

void FileClient::WriteFile(const std::string& path, mal::Buffer data,
                           DoneHandler on_done) {
  auto shared = std::make_shared<mal::Buffer>(std::move(data));
  // Resolve or create the inode first.
  mds_->Lookup(path, [this, path, shared, on_done = std::move(on_done)](
                         mal::Status status, const mds::MdsReply& reply) {
    if (status.ok()) {
      WriteData(reply.inode.ino, shared, path, on_done);
      return;
    }
    if (status.code() != mal::Code::kNotFound) {
      on_done(status);
      return;
    }
    mds_->Create(path, mds::InodeType::kFile, mds::LeasePolicy{},
                 [this, path, shared, on_done](mal::Status create_status) {
                   if (!create_status.ok() &&
                       create_status.code() != mal::Code::kAlreadyExists) {
                     on_done(create_status);
                     return;
                   }
                   mds_->Lookup(path, [this, path, shared, on_done](
                                          mal::Status lookup_status,
                                          const mds::MdsReply& reply) {
                     if (!lookup_status.ok()) {
                       on_done(lookup_status);
                       return;
                     }
                     WriteData(reply.inode.ino, shared, path, on_done);
                   });
                 });
  });
}

void FileClient::WriteData(uint64_t ino, std::shared_ptr<mal::Buffer> data,
                           const std::string& path, DoneHandler on_done) {
  auto extents = rados::StripeRange(DataPrefix(ino), options_.object_size, 0, data->size());
  auto record_size = [this, path, size = data->size(), on_done](mal::Status status) {
    if (!status.ok()) {
      on_done(status);
      return;
    }
    mds::ClientRequest req;
    req.op = mds::MdsOp::kSetSize;
    req.path = path;
    req.seq_value = size;
    mds_->Request(req, [on_done](mal::Status set_status, const mds::MdsReply&) {
      on_done(set_status);
    });
  };
  if (extents.empty()) {
    record_size(mal::Status::Ok());
    return;
  }
  auto pending = std::make_shared<size_t>(extents.size());
  auto first_error = std::make_shared<mal::Status>();
  for (const rados::Extent& extent : extents) {
    osd::Op op;
    op.type = osd::Op::Type::kWriteFull;  // whole-file writes replace stripes
    op.data = data->Read(extent.logical, extent.length);
    rados_->Execute(extent.oid, {op},
                    [pending, first_error, record_size](mal::Status status,
                                                        const osd::OsdOpReply& reply) {
                      mal::Status op_status = status;
                      if (status.ok() && !reply.results.empty()) {
                        op_status = reply.results[0].status;
                      }
                      if (!op_status.ok() && first_error->ok()) {
                        *first_error = op_status;
                      }
                      if (--*pending == 0) {
                        record_size(*first_error);
                      }
                    });
  }
}

void FileClient::ReadFile(const std::string& path, DataHandler on_data) {
  mds_->Lookup(path, [this, on_data = std::move(on_data)](mal::Status status,
                                                          const mds::MdsReply& reply) {
    if (!status.ok()) {
      on_data(status, mal::Buffer());
      return;
    }
    if (reply.inode.type != mds::InodeType::kFile) {
      on_data(mal::Status::InvalidArgument("not a regular file"), mal::Buffer());
      return;
    }
    uint64_t size = reply.inode.size;
    if (size == 0) {
      on_data(mal::Status::Ok(), mal::Buffer());
      return;
    }
    auto extents =
        rados::StripeRange(DataPrefix(reply.inode.ino), options_.object_size, 0, size);
    auto assembled = std::make_shared<mal::Buffer>();
    assembled->Resize(size);
    auto pending = std::make_shared<size_t>(extents.size());
    auto first_error = std::make_shared<mal::Status>();
    for (const rados::Extent& extent : extents) {
      osd::Op op;
      op.type = osd::Op::Type::kRead;
      op.offset = extent.offset;
      op.length = extent.length;
      uint64_t logical = extent.logical;
      uint64_t wanted = extent.length;
      rados_->Execute(extent.oid, {op},
                      [assembled, pending, first_error, on_data, logical, wanted](
                          mal::Status read_status, const osd::OsdOpReply& reply) {
                        mal::Status op_status = read_status;
                        mal::Buffer out;
                        if (read_status.ok() && !reply.results.empty()) {
                          op_status = reply.results[0].status;
                          out = reply.results[0].out;
                        }
                        if (!op_status.ok()) {
                          if (first_error->ok()) {
                            *first_error = op_status;
                          }
                        } else {
                          out.Resize(wanted);
                          assembled->Write(logical, out.data(), out.size());
                        }
                        if (--*pending == 0) {
                          if (first_error->ok()) {
                            on_data(mal::Status::Ok(), *assembled);
                          } else {
                            on_data(*first_error, mal::Buffer());
                          }
                        }
                      });
    }
  });
}

void FileClient::Stat(const std::string& path, StatHandler on_stat) {
  mds_->Lookup(path, [on_stat = std::move(on_stat)](mal::Status status,
                                                    const mds::MdsReply& reply) {
    on_stat(status, reply.inode);
  });
}

void FileClient::Unlink(const std::string& path, DoneHandler on_done) {
  mds::ClientRequest req;
  req.op = mds::MdsOp::kUnlink;
  req.path = path;
  mds_->Request(req, [on_done = std::move(on_done)](mal::Status status,
                                                    const mds::MdsReply&) {
    on_done(status);
  });
}

}  // namespace mal::cephfs
