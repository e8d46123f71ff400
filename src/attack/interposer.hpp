// System-call interposition framework (the malware's foothold).
//
// On the real robot the malware is a shared library forced into the
// control process via LD_PRELOAD / /etc/ld.so.preload, wrapping the
// write/read libc functions that carry USB traffic (paper Fig. 4).  The
// wrapper sees the raw buffer *after* every software safety check and
// *before* the kernel delivers it to the board — the TOCTOU window.
//
// In the simulation, each byte-stream hop (ITP receive, USB write, USB
// read) is routed through an InterposerChain; an attack installs a
// PacketInterposer on the hop it compromised.  The interposer may
// observe, mutate in place, or drop the packet — exactly the three
// behaviours of a malicious syscall wrapper.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/realtime.hpp"

namespace rg {

class PacketInterposer {
 public:
  virtual ~PacketInterposer() = default;

  /// Called once per packet.  `bytes` is the raw buffer (mutable, as a
  /// wrapper sees the caller's buffer); `tick` is the control tick.
  /// Return false to suppress delivery (the wrapper never calls the real
  /// syscall); true to deliver the (possibly mutated) bytes.
  virtual bool on_packet(std::span<std::uint8_t> bytes, std::uint64_t tick) = 0;
};

/// Ordered chain of interposers on one hop (multiple preloaded libraries
/// stack in load order).  An empty chain is the uncompromised system.
class InterposerChain {
 public:
  void add(std::shared_ptr<PacketInterposer> interposer) {
    if (interposer) chain_.push_back(std::move(interposer));
  }

  /// Run the chain.  Returns false as soon as any interposer drops the
  /// packet.  On the tick path of every session: an empty chain (the
  /// gateway's) costs one loop test.
  RG_REALTIME bool process(std::span<std::uint8_t> bytes, std::uint64_t tick) {
    for (const auto& hop : chain_) {
      // rg-lint: allow(call) -- interposers are attack models, installed only in simulation
      if (!hop->on_packet(bytes, tick)) return false;
    }
    return true;
  }

  [[nodiscard]] std::size_t size() const noexcept { return chain_.size(); }
  [[nodiscard]] bool empty() const noexcept { return chain_.empty(); }
  void clear() noexcept { chain_.clear(); }

 private:
  std::vector<std::shared_ptr<PacketInterposer>> chain_;
};

}  // namespace rg
