//! Fixes which CPU each side of a workload runs on.
//!
//! Left to the kernel, the generator and the node's threads either share a
//! core (requests are served in batches, ~4 µs of CPU per local hit) or sit
//! on different cores (every hand-over is a cross-core wake-up, 6–8 µs),
//! and the placement flips from run to run. So the placement is fixed.
//! Threads inherit the affinity of the thread that spawns them, so the
//! main thread moves to the server CPU before it spawns a server and to
//! the generator CPU before it generates load.
//!
//! The gated rounds run with both sides on one CPU ([`Placement::one_cpu`]):
//! on this 2-vCPU guest a cross-CPU wake-up is an inter-processor interrupt
//! through the hypervisor, and rounds with the sides apart spread three
//! times as wide. The traced run repeats the workload with the sides apart
//! ([`Placement::two_cpus`]) for `node.two_cpu_ops_per_s`, so a change that
//! serialises the node still shows.

use std::mem::size_of_val;
use std::sync::OnceLock;

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Words in a CPU mask: room for 1,024 CPUs, the kernel's `CPU_SETSIZE`.
const MASK_WORDS: usize = 16;

/// The CPUs each side runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Placement {
    /// CPU of the generator thread.
    pub generator: usize,
    /// CPU of every origin and node thread.
    pub servers: usize,
}

impl Placement {
    /// Generator on the lowest allowed CPU, servers on the highest (the
    /// same CPU when only one is allowed).
    pub fn two_cpus() -> Option<Placement> {
        allowed()
    }

    /// Both sides on the highest allowed CPU (CPU 0 also serves most
    /// interrupts).
    pub fn one_cpu() -> Option<Placement> {
        allowed().map(|p| Placement {
            generator: p.servers,
            servers: p.servers,
        })
    }
}

/// Lowest and highest set bit of `mask`, as `(generator, servers)`.
fn placement_from(mask: &[u64]) -> Option<Placement> {
    let cpus = |(word, bits): (usize, &u64)| (*bits != 0).then_some((word, *bits));
    let (lo_word, lo_bits) = mask.iter().enumerate().find_map(cpus)?;
    let (hi_word, hi_bits) = mask.iter().enumerate().rev().find_map(cpus)?;
    Some(Placement {
        generator: lo_word * 64 + lo_bits.trailing_zeros() as usize,
        servers: hi_word * 64 + 63 - hi_bits.leading_zeros() as usize,
    })
}

/// The lowest and highest CPU allowed to this process when it was first
/// asked (later calls see the same answer, whatever the calling thread is
/// pinned to by then), or `None` when the kernel will not say: the run
/// then goes on unpinned.
fn allowed() -> Option<Placement> {
    static PLACEMENT: OnceLock<Option<Placement>> = OnceLock::new();
    *PLACEMENT.get_or_init(read_placement)
}

fn read_placement() -> Option<Placement> {
    let mut allowed = [0u64; MASK_WORDS];
    // SAFETY: `allowed` is a live, writable buffer of exactly the size
    // passed; pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, size_of_val(&allowed), allowed.as_mut_ptr()) };
    if rc != 0 {
        return None;
    }
    placement_from(&allowed)
}

/// Restricts the calling thread — and every thread it spawns afterwards —
/// to `cpu`. Returns whether the kernel agreed.
pub fn run_on(cpu: usize) -> bool {
    let mut one = [0u64; MASK_WORDS];
    let Some(word) = one.get_mut(cpu / 64) else {
        return false;
    };
    *word = 1 << (cpu % 64);
    // SAFETY: `one` is a live buffer of exactly the size passed and is only
    // read; pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, size_of_val(&one), one.as_ptr()) == 0 }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_takes_the_lowest_cpu_and_servers_the_highest() {
        let two = placement_from(&[0b11, 0]).expect("two CPUs");
        assert_eq!((two.generator, two.servers), (0, 1));
        let one = placement_from(&[0b100, 0]).expect("one CPU");
        assert_eq!((one.generator, one.servers), (2, 2));
        let wide = placement_from(&[0b1000, 0b1]).expect("CPUs 3 and 64");
        assert_eq!((wide.generator, wide.servers), (3, 64));
        assert_eq!(placement_from(&[0, 0]), None);
    }
}
