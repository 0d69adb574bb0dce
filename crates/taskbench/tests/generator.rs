//! Property + golden tests for the graph generator: determinism is
//! byte-level and pinned, structure is validated per pattern, and the
//! random pattern's reachability invariants hold under the canonical
//! chaos seeds 1/7/1996.

use converse_taskbench::{
    expand_payload, finish_output, fnv1a, payload_digest, GraphSpec, Pattern, TaskGraph, TaskId,
};
use proptest::prelude::*;

fn spec(pattern: Pattern, seed: u64, width: usize, steps: usize) -> GraphSpec {
    GraphSpec {
        pattern,
        seed,
        width,
        steps,
    }
}

// ---- determinism --------------------------------------------------------

/// Same spec → byte-identical encoding, across repeated generation.
#[test]
fn same_seed_is_byte_identical() {
    for pattern in Pattern::ALL {
        for seed in [1u64, 7, 1996] {
            let a = TaskGraph::generate(spec(pattern, seed, 8, 6)).encode();
            let b = TaskGraph::generate(spec(pattern, seed, 8, 6)).encode();
            assert_eq!(a, b, "{} seed {seed} not deterministic", pattern.label());
        }
    }
}

/// Different seeds must yield different *random* graphs (the other
/// patterns are structurally seed-independent — pinned below too).
#[test]
fn random_seeds_differ_structurally() {
    let a = TaskGraph::generate(spec(Pattern::Random, 1, 8, 6)).encode();
    let b = TaskGraph::generate(spec(Pattern::Random, 7, 8, 6)).encode();
    // Encodings embed the seed; compare past the 9-byte (tag, seed)
    // header to compare structure proper.
    assert_ne!(a[9..], b[9..], "random graphs for seeds 1 and 7 coincide");

    for pattern in [
        Pattern::Trivial,
        Pattern::Stencil1D,
        Pattern::Tree,
        Pattern::Butterfly,
    ] {
        let a = TaskGraph::generate(spec(pattern, 1, 8, 6)).encode();
        let b = TaskGraph::generate(spec(pattern, 7, 8, 6)).encode();
        assert_eq!(
            a[9..],
            b[9..],
            "{} structure must not depend on the seed",
            pattern.label()
        );
    }
}

/// Golden pins: FNV-1a of the canonical encoding for one spec per
/// pattern. These freeze the generator's output forever — any change to
/// draw order, dependency order, or encoding is a breaking change to
/// every checked-in benchmark baseline and must be deliberate.
#[test]
fn golden_encodings() {
    let pins: [(Pattern, u64); 5] = [
        (Pattern::Trivial, 0x75059588e67ba972),
        (Pattern::Stencil1D, 0x1da9ffdc319ecc12),
        (Pattern::Tree, 0xe2d39a9b2d32f582),
        (Pattern::Butterfly, 0x0ac17940a95e5337),
        (Pattern::Random, 0x56628f6d37590b04),
    ];
    for (pattern, want) in pins {
        let got = fnv1a(&TaskGraph::generate(spec(pattern, 1996, 8, 6)).encode());
        assert_eq!(
            got,
            want,
            "{}: golden encoding hash changed ({got:#x}) — the generator's output is part of \
             the bench-baseline contract",
            pattern.label()
        );
    }
}

/// The output oracle is part of the same contract: pin the machine-wide
/// fold for one cell per pattern. Re-pinned once, by PR 20, which chains
/// a task's output over the word-parallel digests of its predecessors'
/// payloads instead of over their bytes; `Trivial` has no edges and kept
/// its pin, and `golden_encodings` above did not move.
#[test]
fn golden_expected_folds() {
    let pins: [(Pattern, u64); 5] = [
        (Pattern::Trivial, 0x000dc34a1f004700),
        (Pattern::Stencil1D, 0x3652f9ece69aa285),
        (Pattern::Tree, 0xbc015276d90aa4df),
        (Pattern::Butterfly, 0xdcf6ff0168be8f3c),
        (Pattern::Random, 0x562afe692d790fd5),
    ];
    for (pattern, want) in pins {
        let got = TaskGraph::generate(spec(pattern, 1996, 8, 6)).expected_fold(16);
        assert_eq!(
            got,
            want,
            "{}: golden expected-output fold changed ({got:#x})",
            pattern.label()
        );
    }
}

// ---- payload, digest, output chain --------------------------------------

/// The lengths the payload tests walk: everything short, and the large
/// edge of the benchmark.
fn lengths(short: usize) -> impl Iterator<Item = usize> {
    (0..=short).chain([16 * 1024])
}

/// The bytes on the wire are defined by a per-byte formula; the
/// word-wise writer must reproduce it at every length and alignment of
/// the tail.
#[test]
fn payload_bytes_follow_the_byte_formula() {
    for output in [0u64, u64::MAX, 0x0123_4567_89ab_cdef, fnv1a(b"payload")] {
        let b = output.to_le_bytes();
        for n in lengths(600) {
            let want: Vec<u8> = (0..n)
                .map(|k| b[k % 8] ^ (k as u8).wrapping_mul(0x9d) ^ (k >> 8) as u8)
                .collect();
            assert_eq!(
                expand_payload(output, n),
                want,
                "output {output:#x}, {n} bytes"
            );
        }
    }
}

/// Every byte of a payload, its position and the length feed the digest:
/// no single bit flip, swap of two unequal bytes, swap of two words of
/// different lanes, truncation or appended zero byte leaves it as it
/// was. Exhaustive up to 200 bytes; at 16 KiB every byte and every word
/// is touched once by each edit, the swap distances taken in turn.
#[test]
fn digest_sees_every_byte_position_and_the_length() {
    for n in lengths(200) {
        // Whom to swap `i` with among `0..end`: everything behind it on
        // a short payload, one of these distances on the large one.
        let partners = |i: usize, end: usize, far: &[usize]| -> Vec<usize> {
            if n <= 200 {
                (i + 1..end).collect()
            } else {
                vec![(i + far[i % far.len()]) % end]
            }
        };
        for mut p in [expand_payload(fnv1a(&n.to_le_bytes()), n), vec![0u8; n]] {
            let d = payload_digest(&p);
            for k in 0..n {
                for bit in (0..8).filter(|&bit| n <= 200 || bit == k % 8) {
                    p[k] ^= 1 << bit;
                    assert_ne!(payload_digest(&p), d, "{n} bytes: bit {bit} of byte {k}");
                    p[k] ^= 1 << bit;
                }
                for j in partners(k, n, &[1, 7, 8, 9, 32, 33, 256, 8191]) {
                    if p[j] != p[k] {
                        p.swap(k, j);
                        assert_ne!(
                            payload_digest(&p),
                            d,
                            "{n} bytes: bytes {k} and {j} swapped"
                        );
                        p.swap(k, j);
                    }
                }
            }
            // Words of different lanes: within the whole 32-byte blocks,
            // word indices that differ modulo 4.
            let words = n / 32 * 4;
            let swap_words = |p: &mut [u8], a: usize, b: usize| {
                let (a, b) = (a.min(b), a.max(b));
                let (lo, hi) = p.split_at_mut(b * 8);
                lo[a * 8..a * 8 + 8].swap_with_slice(&mut hi[..8]);
            };
            for a in 0..words {
                for b in partners(a, words, &[1, 2, 3, 5, 6, 7, 1023]) {
                    if b % 4 != a % 4 && p[a * 8..a * 8 + 8] != p[b * 8..b * 8 + 8] {
                        swap_words(&mut p, a, b);
                        assert_ne!(
                            payload_digest(&p),
                            d,
                            "{n} bytes: words {a} and {b} swapped"
                        );
                        swap_words(&mut p, a, b);
                    }
                }
            }
            for cut in 0..n {
                assert_ne!(payload_digest(&p[..cut]), d, "{n} bytes cut to {cut}");
            }
            p.push(0);
            assert_ne!(payload_digest(&p), d, "{n} bytes and a zero byte");
        }
    }
}

/// The one definition of a task's output: [`finish_output`] over
/// expanded payloads, task by task, is what the oracle computes — at the
/// payload sizes the engines are checked at (`exec_matrix.rs`).
#[test]
fn finish_output_and_the_oracle_agree() {
    for pattern in Pattern::ALL {
        let g = TaskGraph::generate(spec(pattern, 1996, 8, 6));
        for payload in [0usize, 16, 64, 16 * 1024] {
            let mut out = vec![0u64; g.num_tasks()];
            for serial in 0..g.num_tasks() as u32 {
                // Handed over in reverse: `finish_output` sorts.
                let mut preds: Vec<(u32, Vec<u8>)> = g
                    .deps(g.task_of_serial(serial))
                    .iter()
                    .rev()
                    .map(|d| {
                        (
                            g.serial(*d),
                            expand_payload(out[g.serial(*d) as usize], payload),
                        )
                    })
                    .collect();
                out[serial as usize] = finish_output(1996, serial, &mut preds);
            }
            assert_eq!(
                out,
                g.expected_outputs(payload),
                "{} at {payload} B",
                pattern.label()
            );
        }
    }
}

/// A 16 KiB edge costs its bytes, not a dependent multiply per byte:
/// the digest against the byte-wise FNV-1a it replaced, kept here as the
/// reference. Measured 24×; optimized builds only.
#[cfg(not(debug_assertions))]
#[test]
fn digest_of_16_kib_is_8x_faster_than_bytewise_fnv() {
    use std::hint::black_box;
    fn best_ns(f: impl Fn(&[u8]) -> u64, p: &[u8]) -> u128 {
        (0..20)
            .map(|_| {
                let t0 = std::time::Instant::now();
                for _ in 0..50 {
                    black_box(f(black_box(p)));
                }
                t0.elapsed().as_nanos()
            })
            .min()
            .expect("twenty samples")
    }
    let p = expand_payload(1996, 16 * 1024);
    let (bytewise, digest) = (best_ns(fnv1a, &p), best_ns(payload_digest, &p));
    println!("16 KiB: byte-wise FNV-1a {bytewise} ns, payload_digest {digest} ns per 50");
    assert!(
        digest * 8 <= bytewise,
        "payload_digest {digest} ns against byte-wise FNV-1a {bytewise} ns per 50 × 16 KiB"
    );
}

// ---- per-pattern structure ---------------------------------------------

#[test]
fn stencil_structure() {
    let g = TaskGraph::generate(spec(Pattern::Stencil1D, 7, 8, 5));
    g.validate_structure().unwrap();
    assert_eq!(g.num_levels(), 5);
    for t in 1..5u32 {
        // Interior tasks have exactly 3 deps, the two edges have 2.
        for i in 0..8u32 {
            let deps = g.deps(TaskId { step: t, index: i });
            let want = if i == 0 || i == 7 { 2 } else { 3 };
            assert_eq!(deps.len(), want, "stencil ({t},{i})");
            for d in deps {
                assert!(d.index.abs_diff(i) <= 1, "stencil dep not a neighbour");
            }
        }
    }
}

#[test]
fn tree_structure() {
    // Non-power-of-two width exercises the odd-level ceil halving.
    let g = TaskGraph::generate(spec(Pattern::Tree, 7, 11, 3));
    g.validate_structure().unwrap();
    let widths: Vec<usize> = (0..g.num_levels()).map(|t| g.level_width(t)).collect();
    assert_eq!(widths, vec![11, 6, 3, 2, 1], "ceil-halving widths");
    // Every non-root level's tasks are consumed by exactly one parent:
    // the tree reduces, it never fans out.
    for t in 0..g.num_levels() as u32 - 1 {
        for i in 0..g.level_width(t as usize) as u32 {
            assert_eq!(
                g.successors(TaskId { step: t, index: i }).len(),
                1,
                "tree ({t},{i}) must feed exactly one parent"
            );
        }
    }
    // The root consumes the whole previous level.
    let root = TaskId {
        step: g.num_levels() as u32 - 1,
        index: 0,
    };
    assert_eq!(g.deps(root).len(), 2);
}

#[test]
fn butterfly_structure() {
    let g = TaskGraph::generate(spec(Pattern::Butterfly, 7, 8, 7));
    g.validate_structure().unwrap();
    for t in 1..7u32 {
        let stride = 1u32 << ((t - 1) % 3); // log2(8) = 3
        for i in 0..8u32 {
            let deps = g.deps(TaskId { step: t, index: i });
            assert_eq!(deps.len(), 2, "butterfly in-degree");
            let partners: Vec<u32> = deps.iter().map(|d| d.index).collect();
            assert!(partners.contains(&i), "butterfly keeps own lane");
            assert!(
                partners.contains(&(i ^ stride)),
                "butterfly ({t},{i}): stride-{stride} partner missing"
            );
        }
    }
    // After log2(width) levels every lane depends (transitively) on
    // every source — the all-to-all property that makes the pattern a
    // communication stress test. Check lane 0 at step 3.
    let mut frontier = vec![TaskId { step: 3, index: 0 }];
    let mut sources = std::collections::HashSet::new();
    while let Some(id) = frontier.pop() {
        if id.step == 0 {
            sources.insert(id.index);
        } else {
            frontier.extend(g.deps(id).iter().copied());
        }
    }
    assert_eq!(
        sources.len(),
        8,
        "butterfly: full mixing after log2(w) steps"
    );
}

#[test]
fn butterfly_rejects_non_power_of_two() {
    let r = std::panic::catch_unwind(|| TaskGraph::generate(spec(Pattern::Butterfly, 1, 6, 3)));
    assert!(r.is_err(), "width 6 butterfly must be rejected");
}

#[test]
fn trivial_has_no_edges() {
    let g = TaskGraph::generate(spec(Pattern::Trivial, 7, 8, 4));
    g.validate_structure().unwrap();
    assert_eq!(g.num_tasks(), 32);
    for s in 0..32u32 {
        let id = g.task_of_serial(s);
        assert!(g.deps(id).is_empty());
        assert!(g.successors(id).is_empty());
    }
}

// ---- random-graph invariants under the canonical seeds ------------------

#[test]
fn random_reachability_under_canonical_seeds() {
    for seed in [1u64, 7, 1996] {
        for (width, steps) in [(8usize, 6usize), (5, 9), (16, 4)] {
            let g = TaskGraph::generate(spec(Pattern::Random, seed, width, steps));
            // validate_structure includes full level-0 reachability.
            g.validate_structure()
                .unwrap_or_else(|e| panic!("random seed {seed} {width}x{steps}: {e}"));
            // Degree bounds, explicitly.
            for t in 1..steps as u32 {
                for i in 0..width as u32 {
                    let d = g.deps(TaskId { step: t, index: i }).len();
                    assert!(
                        (1..=3).contains(&d),
                        "random seed {seed} ({t},{i}): degree {d}"
                    );
                }
            }
        }
    }
}

// ---- properties ---------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Generation is deterministic and structurally valid across the
    /// whole spec space (butterfly widths snapped to powers of two).
    #[test]
    fn generate_is_deterministic_and_valid(
        pat in 0usize..5,
        seed in any::<u64>(),
        width in 1usize..17,
        steps in 1usize..8,
    ) {
        let pattern = Pattern::ALL[pat];
        let width = if pattern == Pattern::Butterfly {
            width.next_power_of_two()
        } else {
            width
        };
        let s = spec(pattern, seed, width, steps);
        let g = TaskGraph::generate(s);
        prop_assert_eq!(g.encode(), TaskGraph::generate(s).encode());
        if let Err(e) = g.validate_structure() {
            return Err(TestCaseError::fail(e));
        }
    }

    /// serial/task_of_serial are inverse bijections and ownership
    /// partitions the task set across any PE count.
    #[test]
    fn serials_and_ownership_partition(
        pat in 0usize..5,
        seed in any::<u64>(),
        width in 1usize..17,
        steps in 1usize..8,
        pes in 1usize..9,
    ) {
        let pattern = Pattern::ALL[pat];
        let width = if pattern == Pattern::Butterfly {
            width.next_power_of_two()
        } else {
            width
        };
        let g = TaskGraph::generate(spec(pattern, seed, width, steps));
        for s in 0..g.num_tasks() as u32 {
            prop_assert_eq!(g.serial(g.task_of_serial(s)), s);
        }
        let mut seen = std::collections::HashSet::new();
        for pe in 0..pes {
            for s in g.local_serials(pe, pes) {
                prop_assert!(seen.insert(s), "serial {} owned twice", s);
            }
        }
        prop_assert_eq!(seen.len(), g.num_tasks());
    }

    /// Any one edit of any payload changes its digest.
    #[test]
    fn digest_changes_with_the_payload(
        bytes in proptest::collection::vec(any::<u8>(), 1..400),
        at in any::<usize>(),
        other in any::<usize>(),
        bit in 0u32..8,
    ) {
        let d = payload_digest(&bytes);
        let (k, j) = (at % bytes.len(), other % bytes.len());
        let mut p = bytes.clone();
        p[k] ^= 1 << bit;
        prop_assert_ne!(payload_digest(&p), d, "bit {} of byte {}", bit, k);
        p[k] ^= 1 << bit;
        if p[k] != p[j] {
            p.swap(k, j);
            prop_assert_ne!(payload_digest(&p), d, "bytes {} and {} swapped", k, j);
            p.swap(k, j);
        }
        prop_assert_ne!(payload_digest(&p[..k]), d, "cut to {}", k);
        p.push(0);
        prop_assert_ne!(payload_digest(&p), d, "a zero byte appended");
    }

    /// The oracle distinguishes payload sizes (the message-size axis is
    /// load-bearing) except for the 8-byte aliasing-free floor.
    #[test]
    fn expected_fold_depends_on_payload(seed in any::<u64>()) {
        let g = TaskGraph::generate(spec(Pattern::Stencil1D, seed, 4, 3));
        prop_assert_ne!(g.expected_fold(16), g.expected_fold(64));
    }
}
