#include "crypto/ot.hpp"

#include <cstring>
#include <stdexcept>

namespace pasnet::crypto {

namespace dh {

std::uint64_t mulmod(std::uint64_t a, std::uint64_t b) noexcept {
  const unsigned __int128 p = static_cast<unsigned __int128>(a) * b;
  // Fast reduction mod 2^61 - 1.
  std::uint64_t lo = static_cast<std::uint64_t>(p & kPrime);
  std::uint64_t hi = static_cast<std::uint64_t>(p >> 61);
  std::uint64_t r = lo + hi;
  if (r >= kPrime) r -= kPrime;
  return r;
}

std::uint64_t powmod(std::uint64_t base, std::uint64_t exp) noexcept {
  std::uint64_t result = 1;
  std::uint64_t b = base % kPrime;
  while (exp > 0) {
    if (exp & 1) result = mulmod(result, b);
    b = mulmod(b, b);
    exp >>= 1;
  }
  return result;
}

std::uint64_t invmod(std::uint64_t a) noexcept {
  // Fermat: a^(p-2) mod p.
  return powmod(a, kPrime - 2);
}

}  // namespace dh

namespace {

std::vector<std::uint8_t> pack_u64s(const std::vector<std::uint64_t>& v) {
  std::vector<std::uint8_t> buf(v.size() * 8);
  if (!v.empty()) std::memcpy(buf.data(), v.data(), buf.size());
  return buf;
}

std::vector<std::uint64_t> unpack_u64s(const std::vector<std::uint8_t>& buf) {
  std::vector<std::uint64_t> v(buf.size() / 8);
  if (!v.empty()) std::memcpy(v.data(), buf.data(), v.size() * 8);
  return v;
}

// The OT dance is inherently sequential (the sender's message depends on
// the receiver's blinding), so both phases run on the caller's thread in
// protocol order.  That schedule is valid under both channel modes: in
// threaded mode each recv finds its message already enqueued and never
// blocks, so OT composes with the concurrent runtime without changes.
//
// In a remote (two-process) context only the local role's sends/recvs and
// compute run — the gates below.  Role SECRETS (the receiver's blinding
// exponents x_t, the sender's ephemeral r) are drawn from the context's
// role_prng(), which is a private entropy-seeded stream in a remote
// process: each process draws only its own role's secrets and the peer
// never learns (or can re-derive) them.  In the in-process simulation
// modes role_prng() aliases the shared ot_prng() streams, so those
// transcripts are unchanged.  The non-local role's output slots hold
// garbage a remote process never reads.
std::vector<std::uint8_t> ot_dh(TwoPartyContext& ctx, int sender,
                                const std::vector<std::array<std::uint8_t, kOtFanIn>>& tables,
                                const std::vector<std::uint8_t>& choices) {
  const int receiver = 1 - sender;
  const std::size_t n = tables.size();

  // Receiver: blind each choice into B_t = g^{x_t} * C^{c_t}.
  std::vector<std::uint64_t> secret_x(n);
  if (ctx.runs(receiver)) {
    std::vector<std::uint64_t> blinded(n);
    for (std::size_t t = 0; t < n; ++t) {
      secret_x[t] = 1 + ctx.role_prng(receiver).next_below(dh::kPrime - 1);
      const std::uint64_t gx = dh::powmod(dh::kGenerator, secret_x[t]);
      blinded[t] = dh::mulmod(gx, dh::powmod(dh::kPublicC, choices[t]));
    }
    ctx.chan(receiver).send_bytes(pack_u64s(blinded));
  }

  if (ctx.runs(sender)) {
    // Sender: one ephemeral r per batch keeps cost linear; derive per-entry
    // pads key_{t,i} = H((B_t * C^{-i})^r, t, i) and mask the table.
    const std::vector<std::uint64_t> b_list = unpack_u64s(ctx.chan(sender).recv_bytes());
    if (b_list.size() != n) throw std::logic_error("ot_1of4: batch size mismatch");
    const std::uint64_t r = 1 + ctx.role_prng(sender).next_below(dh::kPrime - 1);
    const std::uint64_t a_val = dh::powmod(dh::kGenerator, r);
    const std::uint64_t c_inv = dh::invmod(dh::kPublicC);

    std::vector<std::uint8_t> payload(8 + n * kOtFanIn);
    std::memcpy(payload.data(), &a_val, 8);
    for (std::size_t t = 0; t < n; ++t) {
      std::uint64_t pk = b_list[t];
      for (int i = 0; i < kOtFanIn; ++i) {
        const std::uint64_t shared_key = dh::powmod(pk, r);
        const std::uint64_t pad = splitmix64(shared_key ^ (t * kOtFanIn + i));
        payload[8 + t * kOtFanIn + i] =
            tables[t][i] ^ static_cast<std::uint8_t>(pad & 0xFF);
        pk = dh::mulmod(pk, c_inv);  // PK_{i+1} = B * C^{-(i+1)}
      }
    }
    ctx.chan(sender).send_bytes(payload);
  }

  std::vector<std::uint8_t> out(n);
  if (ctx.runs(receiver)) {
    // Receiver: unmask its entry with key = H(A^{x_t}, t, c_t).
    const std::vector<std::uint8_t> reply = ctx.chan(receiver).recv_bytes();
    if (reply.size() != 8 + n * kOtFanIn) {
      throw std::logic_error("ot_1of4: reply size mismatch");
    }
    std::uint64_t a_recv = 0;
    std::memcpy(&a_recv, reply.data(), 8);
    for (std::size_t t = 0; t < n; ++t) {
      const std::uint64_t shared_key = dh::powmod(a_recv, secret_x[t]);
      const std::uint64_t pad = splitmix64(shared_key ^ (t * kOtFanIn + choices[t]));
      out[t] = reply[8 + t * kOtFanIn + choices[t]] ^
               static_cast<std::uint8_t>(pad & 0xFF);
    }
  }
  return out;
}

std::vector<std::uint8_t> ot_ideal(TwoPartyContext& ctx, int sender,
                                   const std::vector<std::array<std::uint8_t, kOtFanIn>>& tables,
                                   const std::vector<std::uint8_t>& choices) {
  if (!ctx.ideal_ot_allowed()) {
    // Backstop for callers that bypassed the context-construction refusal
    // (e.g. a remote context declared dh_masked but handed correlated-mode
    // requests): the simulation must never run between real endpoints.
    throw IdealOtError("ot_1of4: OtMode::correlated refused in a remote context");
  }
  const int receiver = 1 - sender;
  const std::size_t n = tables.size();
  // Ideal functionality with the DH mode's exact transcript shape and
  // sizes, so traffic accounting is identical.  The receiver's message
  // carries its choices in the clear (one byte of each 8-byte slot) and
  // the sender places each chosen entry unmasked at its table slot: no
  // obliviousness — that is the point of the fast path — but the dance
  // works across two processes, where the receiver's process does not
  // know the sender's tables.
  std::vector<std::uint8_t> out(n);
  if (ctx.runs(receiver)) {
    std::vector<std::uint8_t> msg(n * 8, 0);
    for (std::size_t t = 0; t < n; ++t) msg[t * 8] = choices[t];
    ctx.chan(receiver).send_bytes(msg);
  }
  if (ctx.runs(sender)) {
    const std::vector<std::uint8_t> msg = ctx.chan(sender).recv_bytes();
    if (msg.size() != n * 8) throw std::logic_error("ot_1of4: batch size mismatch");
    std::vector<std::uint8_t> reply(8 + n * kOtFanIn, 0);
    for (std::size_t t = 0; t < n; ++t) {
      const std::uint8_t c = msg[t * 8];
      if (c >= kOtFanIn) throw std::logic_error("ot_1of4: choice out of range on the wire");
      reply[8 + t * kOtFanIn + c] = tables[t][c];
    }
    ctx.chan(sender).send_bytes(reply);
  }
  if (ctx.runs(receiver)) {
    const std::vector<std::uint8_t> reply = ctx.chan(receiver).recv_bytes();
    if (reply.size() != 8 + n * kOtFanIn) {
      throw std::logic_error("ot_1of4: reply size mismatch");
    }
    for (std::size_t t = 0; t < n; ++t) out[t] = reply[8 + t * kOtFanIn + choices[t]];
  }
  return out;
}

}  // namespace

std::vector<std::uint8_t> ot_1of4(TwoPartyContext& ctx, int sender,
                                  const std::vector<std::array<std::uint8_t, kOtFanIn>>& tables,
                                  const std::vector<std::uint8_t>& choices, OtMode mode) {
  if (tables.size() != choices.size()) {
    throw std::invalid_argument("ot_1of4: tables/choices size mismatch");
  }
  for (const auto c : choices) {
    if (c >= kOtFanIn) throw std::invalid_argument("ot_1of4: choice out of range");
  }
  if (tables.empty()) return {};
  // One batch = one two-message OT dance; every staged instance inside it
  // is one ot_message (merged flushes credit the whole run here).
  ctx.counters().add(obs::Counter::ot_batches, 1);
  ctx.counters().add(obs::Counter::ot_messages, tables.size());
  return mode == OtMode::dh_masked ? ot_dh(ctx, sender, tables, choices)
                                   : ot_ideal(ctx, sender, tables, choices);
}

void OtBuffer::stage(int sender, std::vector<std::array<std::uint8_t, kOtFanIn>> tables,
                     std::vector<std::uint8_t> choices, std::vector<std::uint8_t>* out,
                     OtMode mode) {
  if (!coalescing_) {
    *out = ot_1of4(ctx_, sender, tables, choices, mode);
    return;
  }
  pending_.push_back(Pending{sender, mode, std::move(tables), std::move(choices), out});
}

void OtBuffer::flush() {
  if (pending_.empty()) return;
  // Merge runs of stages that share (sender, mode) into one OT batch each.
  // The blinded keys and masked tables of every merged request ride in the
  // same two messages, so the run pays the leaf round once.
  std::size_t lo = 0;
  while (lo < pending_.size()) {
    std::size_t hi = lo + 1;
    while (hi < pending_.size() && pending_[hi].sender == pending_[lo].sender &&
           pending_[hi].mode == pending_[lo].mode) {
      ++hi;
    }
    std::vector<std::array<std::uint8_t, kOtFanIn>> tables;
    std::vector<std::uint8_t> choices;
    for (std::size_t i = lo; i < hi; ++i) {
      tables.insert(tables.end(), pending_[i].tables.begin(), pending_[i].tables.end());
      choices.insert(choices.end(), pending_[i].choices.begin(), pending_[i].choices.end());
    }
    const std::vector<std::uint8_t> merged =
        ot_1of4(ctx_, pending_[lo].sender, tables, choices, pending_[lo].mode);
    std::size_t off = 0;
    for (std::size_t i = lo; i < hi; ++i) {
      pending_[i].out->assign(merged.begin() + static_cast<long>(off),
                              merged.begin() + static_cast<long>(off + pending_[i].choices.size()));
      off += pending_[i].choices.size();
    }
    lo = hi;
  }
  pending_.clear();
}

void OtBuffer::set_coalescing(bool on) {
  if (!pending_.empty()) {
    throw std::logic_error("OtBuffer::set_coalescing: stages pending (flush first)");
  }
  coalescing_ = on;
}

}  // namespace pasnet::crypto
