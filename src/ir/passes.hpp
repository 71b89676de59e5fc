#pragma once
// The IR pass pipeline (run between lowering and secret-sharing):
//
//  1. fold_batchnorm     — merge every batch-norm op into its producer
//                          convolution (paper §III-C "BN can be fused into
//                          the convolution layer") and delete the bn ops.
//  2. fuse_x2act_coeffs  — resolve each x2act's effective quadratic
//                          coefficient a = (c/√Nx)·w1 against the producer
//                          conv's output geometry (paper Eq. 4).
//  3. schedule_rounds    — the open-coalescing round scheduler: assign
//                          round groups so that (a) each multiplication's E
//                          and F openings share one exchange and (b)
//                          independent single-round ops on parallel
//                          branches (residual main/skip paths) flush in a
//                          single round-trip.
//
// run_standard_passes applies all three in order; SecureNetwork's compile
// path does exactly that.

#include "ir/program.hpp"

namespace pasnet::ir {

/// Folds batch-norm statistics into the producer convolution's weights and
/// bias, removes the bn ops and rewires their consumers.  Throws if a
/// batch-norm consumes anything but a (depthwise) convolution.  Returns the
/// number of folded layers.
int fold_batchnorm(SecureProgram& program);

/// Computes every x2act op's effective quadratic coefficient from the
/// producer's output geometry (feature count Nx = C·H·W of the incoming
/// activation).  Returns the number of fused activations.
int fuse_x2act_coeffs(SecureProgram& program);

/// Assigns open-coalescing round groups: walks the program in order and
/// greedily grows a group of single-round multiplicative ops whose inputs
/// are all available (produced before the group opened).  A local op that
/// consumes a pending output closes the group — exactly the executor's
/// flush points, so the analytic model can count one round per group and
/// match the measured statistics.  Returns the number of round groups.
int schedule_rounds(SecureProgram& program);

/// Instance-parallelism reorder: a topological list-scheduling pass that
/// makes independent stageable ops (openings and comparisons on parallel
/// branches — e.g. a residual block's downsample-skip conv next to the
/// main path's first conv) contiguous, so schedule_rounds afterwards
/// merges them into shared round groups.  Local ops are emitted as soon
/// as they are ready; stageable ops are emitted in waves of everything
/// simultaneously ready.  Purely a reorder — every edge still points
/// backwards and transcript values are unchanged op for op.
/// Returns the number of ops hoisted ahead of an originally-earlier op.
int parallelize_instances(SecureProgram& program);

/// fold_batchnorm + fuse_x2act_coeffs + parallelize_instances +
/// schedule_rounds.
void run_standard_passes(SecureProgram& program);

}  // namespace pasnet::ir
