//! Data-parallel Jacobi relaxation on a distributed 1-D grid — the
//! SPMD/data-parallel paradigm (DP-Charm's niche) running over the
//! Converse EMI: block-distributed array in global-pointer regions,
//! halo exchange by remote sub-range gets, convergence by allreduce.
//!
//! Solves u'' = 0 with u(0)=0, u(L)=1; the solution is the linear ramp.
//!
//! ```sh
//! cargo run --example jacobi_dp
//! ```

use converse::dp::{DistArray, Dp, Op};

const N: usize = 64;
const TOL: f64 = 1e-8;

fn main() {
    converse::core::run(4, |pe| {
        let dp = Dp::install(pe);
        let u = DistArray::<f64>::new(pe, &dp, N, |i| if i == N - 1 { 1.0 } else { 0.0 });
        dp.barrier(pe);

        let t0 = pe.timer();
        let mut iters = 0u64;
        loop {
            let (left, right) = u.halo(pe);
            // No PE updates its block before every neighbour has read
            // this iteration's halo from it.
            dp.barrier(pe);
            let old = u.local(pe);
            let (lo, hi) = u.local_range();
            let mut maxdiff = 0.0f64;
            u.update_local(pe, |vals| {
                for g in lo..hi {
                    if g == 0 || g == N - 1 {
                        continue;
                    }
                    let lv = if g > lo {
                        old[g - 1 - lo]
                    } else {
                        left.expect("interior halo")
                    };
                    let rv = if g + 1 < hi {
                        old[g + 1 - lo]
                    } else {
                        right.expect("interior halo")
                    };
                    let nv = 0.5 * (lv + rv);
                    maxdiff = maxdiff.max((nv - old[g - lo]).abs());
                    vals[g - lo] = nv;
                }
            });
            iters += 1;
            let residual = dp.allreduce(pe, maxdiff, Op::Max);
            if residual < TOL {
                break;
            }
            if pe.my_pe() == 0 && iters.is_multiple_of(500) {
                pe.cmi_printf(format!("iter {iters}: residual {residual:.3e}"));
            }
        }
        let elapsed = pe.timer() - t0;

        // Verify against the analytic solution and report.
        let all = u.gather_all(pe, &dp);
        if pe.my_pe() == 0 {
            let mut max_err = 0.0f64;
            for (i, v) in all.iter().enumerate() {
                max_err = max_err.max((v - i as f64 / (N - 1) as f64).abs());
            }
            pe.cmi_printf(format!(
                "converged in {iters} iterations ({elapsed:.3}s): max error vs analytic {max_err:.2e}"
            ));
            assert!(max_err < 1e-3);
        }
        dp.barrier(pe);
    });
}
