// MeshSyncPeer — Algorithm 2 generalized to N sites (the journal-version
// "multiple players" extension the ICDCS paper defers in §6).
//
// Topology: full mesh. Each site unicasts its own partial inputs to every
// other site using exactly the two-site message format (SyncMsg already
// names its sender); per peer it keeps the same state the paper's
// algorithm keeps for its single peer:
//
//   LastRcvFrame[i]  — highest contiguous frame of site i's inputs held
//   LastAckFrame[i]  — highest of MY frames that peer i has acked
//
// The exit condition generalizes to min_i LastRcvFrame[i] >= IBufPointer:
// a frame executes only when EVERY site's partial input for it is present,
// so the lockstep guarantee (identical merged input at all N replicas) is
// preserved. Reliability is the same per-peer go-back-N window resend.
//
// Real-time consistency: site 0 stays the single master; every other site
// runs Algorithm 4 against its freshest observation of site 0, which keeps
// the whole mesh rate-locked to one reference clock (star-shaped control
// over a mesh-shaped data plane).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "src/common/time.h"
#include "src/common/types.h"
#include "src/core/config.h"
#include "src/core/input_buffer.h"
#include "src/core/rtt.h"
#include "src/core/sync_peer.h"
#include "src/core/wire.h"

namespace rtct::core {

class MeshSyncPeer {
 public:
  /// `num_sites` must divide 16 (2, 4, 8): each site owns an equal span of
  /// the input word (SET[k] = site_input_mask_n).
  MeshSyncPeer(SiteId my_site, int num_sites, SyncConfig cfg);

  /// Buffers the local partial input for frame + BufFrame (lines 1-5);
  /// `frame_start` is when frame `frame` began (see SyncPeer::submit_local).
  void submit_local(FrameNo frame, InputWord partial, Time frame_start);

  /// Outbound message for one specific peer; nullopt when that peer needs
  /// nothing. Call for each peer on every flush tick.
  std::optional<SyncMsg> make_message(SiteId peer, Time now);

  /// Merges a message from whichever site sent it (msg.site).
  void ingest(const SyncMsg& msg, Time recv_time);

  /// All N sites' inputs present for the pointer frame?
  [[nodiscard]] bool ready() const;
  InputWord pop();

  /// Slowest site holding the session back right now (for diagnostics):
  /// the site with the smallest LastRcvFrame, excluding ourselves.
  [[nodiscard]] SiteId straggler() const;

  // Desync detection (same scheme as SyncPeer; hashes go to every peer).
  void note_state_hash(FrameNo frame, std::uint64_t hash);
  [[nodiscard]] bool desync_detected() const { return desync_frame_ >= 0; }
  [[nodiscard]] FrameNo desync_frame() const { return desync_frame_; }

  // Observability.
  [[nodiscard]] FrameNo pointer() const { return pointer_; }
  [[nodiscard]] FrameNo last_rcv_frame(SiteId site) const { return last_rcv_[site]; }
  [[nodiscard]] Dur rtt(SiteId peer) const { return peers_[peer].rtt.srtt(); }
  [[nodiscard]] SyncPeer::RemoteObs master_obs() const;
  [[nodiscard]] const SyncPeerStats& stats() const { return stats_; }
  [[nodiscard]] int num_sites() const { return num_sites_; }
  [[nodiscard]] SiteId site() const { return my_site_; }

  /// Snapshots counters into the registry: the shared "sync.*" names plus
  /// mesh topology gauges ("mesh.*", per-peer "mesh.peer.<i>.*").
  void export_metrics(MetricsRegistry& reg) const;

 private:
  struct PeerState {
    FrameNo last_ack = 0;   ///< their cumulative ack of my inputs
    FrameNo ack_sent = 0;   ///< highest ack I ever sent them
    FrameNo highest_sent = -1;
    Time last_send_time = -1;  ///< their newest send_time (for echoes)
    Time last_recv_time = 0;
    RttEstimator rtt;  ///< explicit has-sample state (no zero sentinel)
  };

  FrameNo min_acked() const;  ///< lowest ack across peers (window trim)

  SiteId my_site_;
  int num_sites_;
  SyncConfig cfg_;
  InputBuffer ibuf_;
  std::vector<FrameNo> last_rcv_;   ///< per site, including self
  std::vector<PeerState> peers_;    ///< indexed by site (self unused)
  FrameNo pointer_ = 0;
  Time newest_input_start_ = -1;  ///< frame start behind last_rcv_[my_site_]

  // Master observation for Algorithm 4 (slaves only).
  Time master_advance_time_ = 0;
  bool seen_master_ = false;

  // Desync detection (same ring scheme as SyncPeer).
  static constexpr int kHashWindow = 32;
  struct HashRecord {
    FrameNo frame = -1;
    std::uint64_t hash = 0;
  };
  HashRecord own_hashes_[kHashWindow];
  HashRecord latest_own_;
  FrameNo desync_frame_ = -1;

  SyncPeerStats stats_;
};

}  // namespace rtct::core
