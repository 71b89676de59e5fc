#include "proto/secure_network.hpp"

#include "ir/passes.hpp"

namespace pasnet::proto {

SecureNetwork::SecureNetwork(const nn::ModelDescriptor& md, nn::Graph& trained,
                             const std::vector<int>& node_of_layer,
                             crypto::TwoPartyContext& ctx, SecureConfig /*ignored*/)
    : md_(md), ctx_(ctx) {
  // Lower to the IR and run the standard pass pipeline: batch-norm folding,
  // x2act coefficient fusion, open-coalescing round scheduling.
  program_ = ir::lower(md, trained, node_of_layer);
  ir::run_standard_passes(program_);
  crypto::Prng weight_prng(0x5EC0DEULL);
  params_ = ir::share_parameters(program_, weight_prng, ctx.ring());
  // Everything downstream (executor, plan, costing) works from shapes and
  // the shared params; drop the plaintext copy.
  ir::release_parameters(program_);
  // Weight-shaped openings (2 directions each) are model constants;
  // amortizable offline for a static model.
  const auto wire = static_cast<std::uint64_t>(ctx.wire_bytes());
  for (std::size_t i = 0; i < program_.ops.size(); ++i) {
    const ir::Op& op = program_.ops[i];
    if (op.kind == ir::OpKind::conv || op.kind == ir::OpKind::depthwise_conv ||
        op.kind == ir::OpKind::linear) {
      weight_open_bytes_ += params_.weight[i].size() * wire * 2;
    }
  }
}

std::uint64_t SecureNetwork::query_context_seed(std::size_t q) noexcept {
  // Matches the historical infer_batch seeding; changing it invalidates
  // every serialized TripleStore.
  constexpr std::uint64_t kBatchSeedBase = 0xBA7C4ULL;
  return crypto::splitmix64(kBatchSeedBase ^ (q + 1));
}

std::uint64_t SecureNetwork::query_dealer_seed(std::size_t q) noexcept {
  // TwoPartyContext seeds its dealer with splitmix64(context seed).
  return crypto::splitmix64(query_context_seed(q));
}

void SecureNetwork::ensure_classify_compiled() {
  if (argmax_program_) return;
  argmax_program_ = std::make_unique<ir::SecureProgram>(program_);
  ir::append_argmax(*argmax_program_);
}

const ir::SecureProgram& SecureNetwork::classify_program() {
  ensure_classify_compiled();
  return *argmax_program_;
}

}  // namespace pasnet::proto
