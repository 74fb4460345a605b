#include "llc/llc.h"

namespace psllc::llc {

void LlcConfig::validate() const {
  geometry.validate();
  PSLLC_CONFIG_CHECK(lookup_latency > 0, "LLC lookup latency must be > 0");
}

// The virtual-dispatch instantiation behind core::System (declared extern
// in llc.h). The concrete-backend instantiations are emitted with
// core::BasicSystem's in core/system.cc.
template class BasicPartitionedLlc<mem::MemoryBackend>;

}  // namespace psllc::llc
