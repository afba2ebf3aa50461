//! The trace "ISA" exchanged between workload generators and the simulator.
//!
//! One [`Op`] per dynamic instruction (plus `Idle` pseudo-ops representing
//! dependency-chain stalls and `Done` at end of stream). Addresses are flat
//! 64-bit byte addresses; the simulator's caches index them directly.

/// One dynamic operation of a thread's instruction stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    /// Integer ALU instruction.
    Int,
    /// Floating-point instruction.
    Fp,
    /// Memory load from `addr`.
    Load {
        /// Byte address.
        addr: u64,
    },
    /// Memory store to `addr`.
    Store {
        /// Byte address.
        addr: u64,
    },
    /// Conditional branch. `mispredict` is the generator's draw of whether
    /// the core's predictor gets this one wrong (the per-benchmark
    /// misprediction rate folds the predictor model into the trace, as
    /// trace-driven simulators commonly do).
    Branch {
        /// True when the branch costs a misprediction penalty.
        mispredict: bool,
    },
    /// Dependency-chain stall: the thread cannot issue for roughly
    /// `cycles` core cycles. Low-IPC phases are made of these; they are the
    /// consolidation opportunity the paper exploits.
    Idle {
        /// Stall length in core cycles.
        cycles: u16,
    },
    /// Global barrier `id`: the thread blocks until every live thread has
    /// reached the same barrier.
    Barrier {
        /// Barrier sequence number (identical across threads).
        id: u32,
    },
    /// Acquire lock `lock` (spin until free).
    LockAcq {
        /// Lock identifier.
        lock: u32,
    },
    /// Release lock `lock`.
    LockRel {
        /// Lock identifier.
        lock: u32,
    },
    /// End of the thread's stream.
    Done,
}

impl Op {
    /// True for ops that retire as an architectural instruction (everything
    /// except stalls and end-of-stream).
    pub fn is_instruction(&self) -> bool {
        !matches!(self, Op::Idle { .. } | Op::Done)
    }

    /// The memory address, if this is a load or store.
    pub fn address(&self) -> Option<u64> {
        match self {
            Op::Load { addr } | Op::Store { addr } => Some(*addr),
            _ => None,
        }
    }
}

/// Address-space layout shared by generators and tests.
///
/// Each thread owns a private segment; one program-wide shared segment is
/// common to all threads. Segments are far apart so they can never alias.
pub mod address_space {
    /// Base of the shared data segment.
    pub const SHARED_BASE: u64 = 1 << 46;
    /// Base of thread `t`'s private segment.
    pub fn private_base(thread: usize) -> u64 {
        (1 + thread as u64) << 32
    }
    /// True if `addr` falls in the shared segment.
    pub fn is_shared(addr: u64) -> bool {
        addr >= SHARED_BASE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instruction_classification() {
        assert!(Op::Int.is_instruction());
        assert!(Op::Load { addr: 0 }.is_instruction());
        assert!(Op::Barrier { id: 0 }.is_instruction());
        assert!(!Op::Idle { cycles: 3 }.is_instruction());
        assert!(!Op::Done.is_instruction());
    }

    #[test]
    fn memory_classification() {
        assert_eq!(Op::Store { addr: 42 }.address(), Some(42));
        assert_eq!(Op::Fp.address(), None);
    }

    #[test]
    fn address_segments_do_not_alias() {
        for t in 0..64 {
            let base = address_space::private_base(t);
            assert!(!address_space::is_shared(base));
            assert!(base < address_space::SHARED_BASE);
            // Private segments are 4 GiB apart; well beyond any working set.
            assert_eq!(address_space::private_base(t + 1) - base, 1 << 32);
        }
        assert!(address_space::is_shared(address_space::SHARED_BASE));
    }

    #[test]
    fn only_loads_and_stores_carry_an_address() {
        let others = [
            Op::Int,
            Op::Fp,
            Op::Branch { mispredict: true },
            Op::Idle { cycles: 1 },
            Op::Barrier { id: 7 },
            Op::LockAcq { lock: 7 },
            Op::LockRel { lock: 7 },
            Op::Done,
        ];
        for op in others {
            assert_eq!(op.address(), None, "{op:?}");
        }
        assert_eq!(Op::Load { addr: 7 }.address(), Some(7));
        assert_eq!(Op::Store { addr: u64::MAX }.address(), Some(u64::MAX));
    }

    #[test]
    fn branches_and_synchronisation_retire_as_instructions() {
        for op in [
            Op::Fp,
            Op::Store { addr: 0 },
            Op::Branch { mispredict: false },
            Op::Branch { mispredict: true },
            Op::LockAcq { lock: 0 },
            Op::LockRel { lock: 0 },
        ] {
            assert!(op.is_instruction(), "{op:?}");
        }
    }
}
