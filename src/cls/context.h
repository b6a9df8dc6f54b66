// Execution context handed to object-class methods (paper §4.2).
//
// A method runs "within the context of an object": reads observe the
// staged transaction state, and every mutation is built as a primitive Op,
// applied to the staged object through ObjectStore::ApplyOp (the same code
// a client's op runs), and recorded. The primary commits the staged object
// as is; the recorded ops replace the kExec op in the transaction it ships
// to replicas, so replicas never run class code — they replay its effects
// deterministically (like Ceph replicating the resulting transaction).
#ifndef MALACOLOGY_CLS_CONTEXT_H_
#define MALACOLOGY_CLS_CONTEXT_H_

#include <string>
#include <vector>

#include "src/common/buffer.h"
#include "src/common/status.h"
#include "src/osd/object_store.h"

namespace mal::cls {

class ClsContext {
 public:
  // `staged` is the transaction's delta view of the object (see
  // osd::TxnObject — the committed object is never touched until commit);
  // `effects` accumulates replicated primitive ops.
  ClsContext(std::string oid, osd::TxnObject* staged, std::vector<osd::Op>* effects)
      : oid_(std::move(oid)), staged_(staged), effects_(effects) {}

  const std::string& oid() const { return oid_; }
  bool Exists() const { return staged_->exists(); }

  // -- reads (staged view) ---------------------------------------------------
  mal::Result<mal::Buffer> Read(uint64_t offset, uint64_t length) const;
  mal::Result<uint64_t> Size() const;
  mal::Result<std::string> OmapGet(const std::string& key) const;
  mal::Result<osd::Omap> OmapList(const std::string& prefix) const;
  mal::Result<std::string> XattrGet(const std::string& key) const;

  // -- writes (applied through ObjectStore::ApplyOp, then recorded) ------------
  mal::Status Create(bool excl);
  mal::Status Write(uint64_t offset, const mal::Buffer& data);
  mal::Status WriteFull(const mal::Buffer& data);
  mal::Status Append(const mal::Buffer& data);
  mal::Status OmapSet(const std::string& key, const std::string& value);
  mal::Status OmapDel(const std::string& key);
  mal::Status XattrSet(const std::string& key, const std::string& value);

 private:
  // Stages `op` with ObjectStore::ApplyOp and, if it succeeds, records it.
  mal::Status ApplyAndRecord(osd::Op op);

  std::string oid_;
  osd::TxnObject* staged_;
  std::vector<osd::Op>* effects_;
};

}  // namespace mal::cls

#endif  // MALACOLOGY_CLS_CONTEXT_H_
