// VP screening primitives (Appendices C and E), used by the per-shard
// runners: each shard screens only the VPs it owns, but the probe set and
// the verdict logic must be identical across shards.
#pragma once

#include "core/vp_agent.h"
#include "topo/topology.h"

namespace shadowprobe::core {

/// Pair resolver: the non-serving sibling three addresses above the service
/// address in the same /24 (the paper's example: 1.1.1.4 as to 1.1.1.1).
[[nodiscard]] net::Ipv4Addr pair_resolver_of(net::Ipv4Addr service);

enum class ScreeningVerdict { kUsable, kResidential, kTtlMangling, kIntercepted };

/// Emits one VP's screening probes: two TTL canaries with distinct initial
/// TTLs towards the control server, plus a pair-resolver probe towards every
/// public resolver's sibling address. Call only for non-residential VPs.
void send_screening_probes(VpAgent& agent, net::Ipv4Addr control_addr,
                           const topo::Topology& topo);

/// Judges one VP after the probes settled. `intercepted` is whether any
/// pair-resolver probe of this VP was answered.
[[nodiscard]] ScreeningVerdict screen_vp(const topo::VantagePoint& vp,
                                         const ControlServer& control, bool intercepted);

}  // namespace shadowprobe::core
