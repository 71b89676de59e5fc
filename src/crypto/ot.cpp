#include "crypto/ot.hpp"

#include <stdexcept>
#include <utility>

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

/// Bytes of one stage's packed shifts: four 2-bit shifts per byte.
std::size_t shift_bytes(std::size_t n) noexcept { return (n + 3) / 4; }

void check_choices(const std::vector<std::uint8_t>& choices) {
  for (const auto c : choices) {
    if (c >= kOtFanIn) throw std::invalid_argument("ot_1of4: choice out of range");
  }
}

}  // namespace

std::vector<std::uint8_t> ot_1of4(TwoPartyContext& ctx, int sender,
                                  const std::vector<std::array<std::uint8_t, kOtFanIn>>& tables,
                                  const std::vector<std::uint8_t>& choices, OtMode /*mode*/) {
  // Checked before any random OT is claimed.
  if (tables.size() != choices.size()) {
    throw std::invalid_argument("ot_1of4: tables/choices size mismatch");
  }
  check_choices(choices);
  if (tables.empty()) return {};
  // A buffer of its own runs the exchange now, whatever the context's
  // buffer holds pending.
  std::vector<std::uint8_t> out;
  OtBuffer once(ctx);
  once.stage(ctx.random_ot(tables.size(), sender), tables, choices, &out);
  once.flush();
  return out;
}

void OtBuffer::stage(RandomOt rot, std::vector<std::array<std::uint8_t, kOtFanIn>> tables,
                     std::vector<std::uint8_t> choices, std::vector<std::uint8_t>* out) {
  // Each role reads only its own input: a remote sender's choices and a
  // remote receiver's tables may be empty.
  const std::size_t n = rot.size();
  const bool sends = ctx_.runs(rot.sender);
  const bool receives = ctx_.runs(1 - rot.sender);
  if ((rot.sender != 0 && rot.sender != 1) || rot.chosen.size() != n ||
      rot.pads.size() != kOtFanIn * n || (sends && tables.size() != n) ||
      (receives && choices.size() != n)) {
    throw std::invalid_argument("ot_1of4: random OT batch does not match the request");
  }
  if (receives) check_choices(choices);
  pending_.push_back(Pending{std::move(rot), std::move(tables), std::move(choices), out});
}

void OtBuffer::flush() {
  // Merge runs of stages that share a sender into one exchange each: the
  // shifts and masked tables of every merged request ride in the same two
  // messages, so the run pays the leaf round once.
  std::vector<Pending> batch = std::exchange(pending_, {});
  std::size_t lo = 0;
  while (lo < batch.size()) {
    std::size_t hi = lo + 1;
    while (hi < batch.size() && batch[hi].rot.sender == batch[lo].rot.sender) ++hi;
    transfer(batch.data() + lo, hi - lo);
    lo = hi;
  }
}

// Both messages run in protocol order (the reply depends on the shifts):
// in process, each recv finds its message already enqueued.  In a remote
// context only the local role's sends, receives and compute run; the peer
// role's output slots hold zeros a remote process never reads.
void OtBuffer::transfer(Pending* batch, std::size_t count) {
  const int sender = batch[0].rot.sender;
  const int receiver = 1 - sender;
  std::size_t n = 0, frame = 0;
  for (std::size_t i = 0; i < count; ++i) {
    n += batch[i].rot.size();
    frame += shift_bytes(batch[i].rot.size());
    batch[i].out->assign(batch[i].rot.size(), 0);
  }
  if (n == 0) return;
  // One exchange = one OT batch; every staged instance inside it is one
  // ot_message (merged flushes credit the whole run here).
  ctx_.counters().add(obs::Counter::ot_batches, 1);
  ctx_.counters().add(obs::Counter::ot_messages, n);

  // Receiver: s = (c − r) mod 4 for its random choice r.
  if (ctx_.runs(receiver)) {
    std::vector<std::uint8_t> shifts(frame, 0);
    std::size_t off = 0;
    for (std::size_t i = 0; i < count; ++i) {
      const Pending& p = batch[i];
      for (std::size_t t = 0; t < p.choices.size(); ++t) {
        const unsigned s = (p.choices[t] - p.rot.choice[t]) & 3U;
        shifts[off + t / 4] |= static_cast<std::uint8_t>(s << (2 * (t % 4)));
      }
      off += shift_bytes(p.choices.size());
    }
    ctx_.chan(receiver).send_bytes(shifts);
  }

  // Sender: entry j goes out under pad P_{(j − s) mod 4}, so the
  // receiver's chosen entry c lands under P_r.
  if (ctx_.runs(sender)) {
    const std::vector<std::uint8_t> shifts = ctx_.chan(sender).recv_bytes();
    if (shifts.size() != frame) throw OtError("ot_1of4: shift frame has the wrong length");
    std::vector<std::uint8_t> reply(n * kOtFanIn);
    std::size_t off = 0, k = 0;
    for (std::size_t i = 0; i < count; ++i) {
      const Pending& p = batch[i];
      for (std::size_t t = 0; t < p.rot.size(); ++t, ++k) {
        const unsigned s = (shifts[off + t / 4] >> (2 * (t % 4))) & 3U;
        for (unsigned j = 0; j < 4; ++j) {
          reply[kOtFanIn * k + j] = p.tables[t][j] ^ p.rot.pads[kOtFanIn * t + ((j - s) & 3U)];
        }
      }
      off += shift_bytes(p.rot.size());
    }
    ctx_.chan(sender).send_bytes(reply);
  }

  if (ctx_.runs(receiver)) {
    const std::vector<std::uint8_t> reply = ctx_.chan(receiver).recv_bytes();
    if (reply.size() != n * kOtFanIn) throw OtError("ot_1of4: reply frame has the wrong length");
    std::size_t k = 0;
    for (std::size_t i = 0; i < count; ++i) {
      const Pending& p = batch[i];
      std::vector<std::uint8_t>& out = *p.out;
      for (std::size_t t = 0; t < p.choices.size(); ++t, ++k) {
        out[t] = reply[kOtFanIn * k + p.choices[t]] ^ p.rot.chosen[t];
      }
    }
  }
}

}  // namespace pasnet::crypto
