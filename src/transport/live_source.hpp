#pragma once

/// \file live_source.hpp
/// \brief Deterministic reconstruction of a complete live broadcast from a
/// wire hello: dataset, per-generation indexes, coded on-air programs and
/// the generation schedule.
///
/// The hello is the daemon's build recipe. Both ends of a live connection
/// construct a LiveSource from the SAME hello and therefore own
/// bit-identical broadcasts: the daemon airs bucket frames out of its copy,
/// the client validates every received frame against its own and answers
/// queries from the in-memory index — exactly the way a simulated client
/// "decodes" index content it has paid tuning bytes for. This is also what
/// makes Sim/Stream parity hold by construction: the session's byte
/// metrics are a pure function of the timetable, and the timetable is a
/// pure function of the hello.
///
/// Knobs the hello does not carry (exponential-index chunking, DSI object
/// factor, tree fan-out targets) stay at their library defaults on both
/// ends — a live daemon serves the default-tuned family.

#include <cstdint>
#include <memory>
#include <vector>

#include "air/air_index.hpp"
#include "air/dsi_handle.hpp"
#include "air/exp_handle.hpp"
#include "air/hci_handle.hpp"
#include "air/rtree_handle.hpp"
#include "broadcast/generation.hpp"
#include "broadcast/program.hpp"
#include "datasets/datasets.hpp"
#include "dsi/index.hpp"
#include "hci/hci.hpp"
#include "hilbert/space_mapper.hpp"
#include "rtree/rtree_air.hpp"
#include "wire/framing.hpp"

namespace dsi::transport {

/// One fully built live broadcast. Immutable after construction; safe to
/// share across threads (the daemon's per-connection streams all read one
/// instance).
class LiveSource {
 public:
  /// Builds everything the hello describes. The hello must already have
  /// passed wire::DecodeHello validation (or be constructed in-process with
  /// the same invariants); now_packet is ignored — it is per-connection.
  explicit LiveSource(const wire::HelloPayload& hello);

  const wire::HelloPayload& hello() const { return hello_; }
  const hilbert::SpaceMapper& mapper() const { return mapper_; }

  size_t num_generations() const { return handles_.size(); }
  /// The ON-AIR program of generation \p g (coded when the hello enables
  /// coding, the handle's data program otherwise).
  const broadcast::BroadcastProgram& program(size_t g) const {
    return *air_programs_[g];
  }
  /// The schedule over the on-air programs; what transports expose.
  const broadcast::GenerationSchedule& schedule() const { return schedule_; }
  /// Query-side handle of generation \p g (unchanged family clients).
  const air::AirIndexHandle& handle(size_t g) const { return *handles_[g]; }
  /// Ground-truth object set of generation \p g.
  const std::vector<datasets::SpatialObject>& objects(size_t g) const {
    return gen_objects_[g];
  }

  /// True when the broadcast actually airs something. A zero-object build
  /// yields an empty (zero-cycle) program that must never be served — the
  /// daemon refuses to start and clients report a clean error.
  bool airable() const { return program(0).cycle_packets() > 0; }

  /// Serialized on-air content of the bucket at \p phys_slot of generation
  /// \p g's program: the real wire/codecs encodings for index tables, tree
  /// nodes and data objects, and GF(256) Vandermonde parity planes (plane 0
  /// is the plain XOR of the group) for kParity buckets. The result is
  /// exactly bucket(phys_slot).size_bytes long.
  std::vector<uint8_t> BucketContent(size_t g, size_t phys_slot) const;
  /// BucketContent appended to \p out, so a sender encodes straight into
  /// its send buffer. A parity plane encodes its members one at a time past
  /// the plane, in \p out's own tail, and trims them off again.
  void AppendBucketContent(size_t g, size_t phys_slot,
                           std::vector<uint8_t>* out) const;

 private:
  /// Appends the content of a non-parity bucket to \p out.
  void AppendDataContent(size_t g, const broadcast::Bucket& bucket,
                         std::vector<uint8_t>* out) const;

  wire::HelloPayload hello_;
  hilbert::SpaceMapper mapper_;
  std::vector<std::vector<datasets::SpatialObject>> gen_objects_;

  // Exactly one family vector is populated; handles_ points into it.
  std::vector<std::unique_ptr<core::DsiIndex>> dsi_indexes_;
  std::vector<air::DsiHandle> dsi_handles_;
  std::vector<std::unique_ptr<rtree::RtreeIndex>> rtree_indexes_;
  std::vector<air::RtreeHandle> rtree_handles_;
  std::vector<std::unique_ptr<hci::HciIndex>> hci_indexes_;
  std::vector<air::HciHandle> hci_handles_;
  std::vector<std::unique_ptr<air::ExpHandle>> exp_handles_;

  std::vector<const air::AirIndexHandle*> handles_;
  std::vector<broadcast::BroadcastProgram> coded_;  // when coding enabled
  std::vector<const broadcast::BroadcastProgram*> air_programs_;
  broadcast::GenerationSchedule schedule_;
};

}  // namespace dsi::transport
