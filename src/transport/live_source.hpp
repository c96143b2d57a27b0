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
/// The build goes through the family module (air/family.hpp): the
/// generations' object sets come from air::MakeGenerations, the indexes
/// and handles from air::FamilyBroadcast, and the on-air programs and their
/// schedule from the simulator's own air::OnAirSchedule. Knobs the hello
/// does not carry (exponential-index chunking, DSI object factor, tree
/// fan-out targets) stay at their library defaults on both ends — a live
/// daemon serves the default-tuned family.

#include <cstdint>
#include <vector>

#include "air/air_index.hpp"
#include "air/disk_layout.hpp"
#include "air/family.hpp"
#include "broadcast/generation.hpp"
#include "broadcast/program.hpp"
#include "datasets/datasets.hpp"
#include "hilbert/space_mapper.hpp"
#include "wire/framing.hpp"

namespace dsi::transport {

/// One fully built live broadcast. Immutable after construction; safe to
/// share across threads (the daemon's per-connection streams all read one
/// instance).
class LiveSource {
 public:
  /// Builds everything the hello describes. The hello must pass
  /// wire::RecipeError (DecodeHello applies it); now_packet is ignored — it
  /// is per-connection.
  explicit LiveSource(const wire::HelloPayload& hello);

  const wire::HelloPayload& hello() const { return hello_; }
  const hilbert::SpaceMapper& mapper() const { return mapper_; }

  size_t num_generations() const { return family_.num_generations(); }
  /// The ON-AIR program of generation \p g (coded when the hello enables
  /// coding, the handle's data program otherwise). Airable sources only.
  const broadcast::BroadcastProgram& program(size_t g) const {
    return schedule().program(g);
  }
  /// The schedule over the on-air programs; what transports expose.
  const broadcast::GenerationSchedule& schedule() const {
    return on_air_.schedule();
  }
  /// Query-side handle of generation \p g (unchanged family clients).
  const air::AirIndexHandle& handle(size_t g) const {
    return family_.handle(g);
  }
  /// Every generation's query-side handle, in generation order.
  const std::vector<const air::AirIndexHandle*>& handles() const {
    return family_.handles();
  }
  /// Ground-truth object set of generation \p g.
  const std::vector<datasets::SpatialObject>& objects(size_t g) const {
    return generations_.objects[g];
  }

  /// True when the broadcast actually airs something. A zero-object build
  /// yields an empty (zero-cycle) program that must never be served — its
  /// schedule stays empty, the daemon refuses to start and clients report a
  /// clean error.
  bool airable() const { return schedule().num_generations() > 0; }

  /// Serialized on-air content of the bucket at \p phys_slot of generation
  /// \p g's program: the handle's own encoding (AirIndexHandle::
  /// AppendContent) for index tables, tree nodes and data objects, and
  /// GF(256) Vandermonde parity planes (plane 0 is the plain XOR of the
  /// group) for kParity buckets. The result is exactly
  /// bucket(phys_slot).size_bytes long.
  std::vector<uint8_t> BucketContent(size_t g, size_t phys_slot) const;
  /// BucketContent appended to \p out, so a sender encodes straight into
  /// its send buffer. A parity plane encodes its members one at a time past
  /// the plane, in \p out's own tail, and trims them off again.
  void AppendBucketContent(size_t g, size_t phys_slot,
                           std::vector<uint8_t>* out) const;

 private:
  wire::HelloPayload hello_;
  hilbert::SpaceMapper mapper_;
  air::Generations generations_;
  air::FamilyBroadcast family_;
  air::OnAirSchedule on_air_;
};

}  // namespace dsi::transport
