#pragma once
// Hardware and network configurations for the cryptographic performance
// model (paper §IV "Hardware setup": two ZCU104 MPSoCs over a 1 GB/s LAN,
// 200 MHz, 128-bit bus processing four 32-bit words per cycle).
//
// Calibration note (this substitutes three knobs for the paper's one): the
// paper's Eq. 5-16 use a single computational-parallelism term PP.  A
// ZCU104 accelerator has distinct datapaths, so this model exposes three
// parallelism knobs (comparison/OT, convolution MAC array, elementwise),
// calibrated so the published Fig. 1 per-operator numbers are reproduced
// within ~10-20%.
// Communication numerators in the paper's equations are interpreted as
// bits over an 8 Gbit/s link, which reproduces Table I's communication
// volumes (e.g. ResNet-18 all-poly ~= 0.035 GB on ImageNet).

namespace pasnet::perf {

/// FPGA accelerator profile.
struct HardwareConfig {
  double freq_hz = 200e6;   ///< accelerator clock
  double pp_cmp = 40.0;     ///< parallel lanes of the OT/comparison datapath
  double pp_conv = 512.0;   ///< parallel MACs of the convolution engine
  double pp_elem = 64.0;    ///< parallel lanes for elementwise/polynomial ops
  double power_kw = 0.016;  ///< board power (efficiency = 1/(latency·kW))

  /// The paper's evaluation platform: Xilinx ZCU104 MPSoC.
  [[nodiscard]] static HardwareConfig zcu104() { return HardwareConfig{}; }
};

/// Interconnect profile.
struct NetworkConfig {
  double bandwidth_bps = 8e9;     ///< bits per second (1 GB/s LAN)
  double base_latency_s = 50e-6;  ///< Tbc: fixed per-message latency

  /// The paper's 1 GB/s LAN router between the two boards.
  [[nodiscard]] static NetworkConfig lan_1gbps() { return NetworkConfig{}; }
  /// A slower WAN-ish profile for sensitivity sweeps.
  [[nodiscard]] static NetworkConfig wan_100mbps() {
    return NetworkConfig{0.8e9, 2e-3};
  }
};

/// Published power draw of the Table I comparator platforms, derived from
/// the paper's efficiency column (1/(s·kW)); used only for cross-work rows.
struct ReferencePlatformPower {
  static constexpr double cryptgpu_kw = 0.716;   ///< multi-GPU server
  static constexpr double cryptflow_kw = 0.402;  ///< CPU cluster
};

}  // namespace pasnet::perf
