//! The action engine: the operand crossbar and the per-container ALUs.
//!
//! The matched VLIW action drives one ALU per PHV container. Each ALU reads
//! its operands from the PHV (via the input crossbar) or from an immediate,
//! performs its operation, and writes the result into its own container;
//! stateful operations additionally access the stage's stateful memory
//! through the address translation supplied by the caller (identity for the
//! baseline pipeline, segment-table translation under Menshen).

use crate::action::{AluOp, Operand, VliwAction};
use crate::params::NUM_CONTAINERS;
use crate::phv::{ContainerRef, Phv};
use crate::stateful::{AddressTranslate, StatefulMemory};

/// Outcome of executing one VLIW action, used by tests and the pipeline trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ActionOutcome {
    /// Number of ALUs that executed.
    pub alus_fired: usize,
    /// Number of stateful-memory accesses performed.
    pub stateful_accesses: usize,
    /// Number of stateful accesses suppressed because address translation
    /// failed (outside the module's segment).
    pub stateful_violations: usize,
    /// Whether the packet was marked for discard.
    pub discarded: bool,
}

/// Executes `action` over `phv`, reading the *input* PHV for every operand and
/// producing the updated PHV in place — the hardware ALUs all consume the
/// incoming PHV in parallel, so reads must not observe this action's writes.
pub fn execute(
    action: &VliwAction,
    phv: &mut Phv,
    stateful: &mut StatefulMemory,
    translate: &dyn AddressTranslate,
) -> ActionOutcome {
    let input = phv.clone();
    let mut outcome = ActionOutcome::default();
    let module_id = input.module_id;

    for (slot, instr) in action.iter_active() {
        outcome.alus_fired += 1;
        let a = instr.operand_a.map(|c| input.get(c)).unwrap_or(0);
        let b = match instr.operand_b {
            Operand::Container(c) => input.get(c),
            Operand::Immediate(imm) => u64::from(imm),
        };
        // The destination container of a header ALU is the ALU's own slot;
        // slot 24 is the metadata ALU.
        let dst = if slot < NUM_CONTAINERS - 1 {
            Some(ContainerRef::from_flat_index(slot).expect("slot in range"))
        } else {
            None
        };

        match instr.op {
            AluOp::Add => {
                if let Some(dst) = dst {
                    phv.set(dst, a.wrapping_add(b));
                }
            }
            AluOp::Sub => {
                if let Some(dst) = dst {
                    phv.set(dst, a.wrapping_sub(b));
                }
            }
            AluOp::AddI => {
                if let Some(dst) = dst {
                    phv.set(dst, a.wrapping_add(b));
                }
            }
            AluOp::SubI => {
                if let Some(dst) = dst {
                    phv.set(dst, a.wrapping_sub(b));
                }
            }
            AluOp::Set => {
                if let Some(dst) = dst {
                    phv.set(dst, b);
                }
            }
            AluOp::Load => {
                outcome.stateful_accesses += 1;
                match translate.translate(module_id, b as u32) {
                    Some(addr) => {
                        if let (Some(dst), Ok(value)) = (dst, stateful.read(addr)) {
                            phv.set(dst, value);
                        }
                    }
                    None => outcome.stateful_violations += 1,
                }
            }
            AluOp::Store => {
                outcome.stateful_accesses += 1;
                match translate.translate(module_id, b as u32) {
                    Some(addr) => {
                        let _ = stateful.write(addr, a);
                    }
                    None => outcome.stateful_violations += 1,
                }
            }
            AluOp::LoadD => {
                outcome.stateful_accesses += 1;
                match translate.translate(module_id, b as u32) {
                    Some(addr) => {
                        if let Ok(old) = stateful.load_and_add(addr) {
                            if let Some(dst) = dst {
                                phv.set(dst, old);
                            }
                        }
                    }
                    None => outcome.stateful_violations += 1,
                }
            }
            AluOp::Port => {
                phv.metadata.dst_port = b as u16;
            }
            AluOp::Discard => {
                phv.metadata.discard = true;
                outcome.discarded = true;
            }
        }
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::AluInstruction;
    use crate::params::NUM_HEADER_CONTAINERS;
    use crate::phv::ContainerRef as C;
    use crate::stateful::IdentityTranslation;

    fn setup() -> (Phv, StatefulMemory) {
        (Phv::zeroed(), StatefulMemory::new(16))
    }

    #[test]
    fn arithmetic_ops() {
        let (mut phv, mut mem) = setup();
        phv.set(C::h4(0), 10);
        phv.set(C::h4(1), 3);
        let action = VliwAction::nop()
            .with(C::h4(2), AluInstruction::add(C::h4(0), C::h4(1)))
            .with(C::h4(3), AluInstruction::sub(C::h4(0), C::h4(1)))
            .with(C::h4(4), AluInstruction::addi(C::h4(0), 100))
            .with(C::h4(5), AluInstruction::subi(C::h4(0), 1))
            .with(C::h2(0), AluInstruction::set(77));
        let outcome = execute(&action, &mut phv, &mut mem, &IdentityTranslation);
        assert_eq!(outcome.alus_fired, 5);
        assert_eq!(phv.get(C::h4(2)), 13);
        assert_eq!(phv.get(C::h4(3)), 7);
        assert_eq!(phv.get(C::h4(4)), 110);
        assert_eq!(phv.get(C::h4(5)), 9);
        assert_eq!(phv.get(C::h2(0)), 77);
    }

    #[test]
    fn alus_read_input_phv_not_partial_results() {
        // Two ALUs: one overwrites h4(0), the other reads h4(0). The reader
        // must see the *input* value regardless of slot ordering.
        let (mut phv, mut mem) = setup();
        phv.set(C::h4(0), 5);
        let action = VliwAction::nop()
            .with(C::h4(0), AluInstruction::set(1000))
            .with(C::h4(1), AluInstruction::addi(C::h4(0), 1));
        execute(&action, &mut phv, &mut mem, &IdentityTranslation);
        assert_eq!(phv.get(C::h4(0)), 1000);
        assert_eq!(phv.get(C::h4(1)), 6, "reads the pre-action value of h4(0)");
    }

    #[test]
    fn stateful_ops() {
        let (mut phv, mut mem) = setup();
        phv.set(C::h4(0), 0xabcd);
        let store = VliwAction::nop().with(C::h4(7), AluInstruction::store(C::h4(0), 3));
        let outcome = execute(&store, &mut phv, &mut mem, &IdentityTranslation);
        assert_eq!(outcome.stateful_accesses, 1);
        assert_eq!(mem.peek(3), Some(0xabcd));

        let load = VliwAction::nop().with(C::h4(1), AluInstruction::load(3));
        execute(&load, &mut phv, &mut mem, &IdentityTranslation);
        assert_eq!(phv.get(C::h4(1)), 0xabcd);

        let loadd = VliwAction::nop().with(C::h4(2), AluInstruction::loadd(3));
        execute(&loadd, &mut phv, &mut mem, &IdentityTranslation);
        assert_eq!(phv.get(C::h4(2)), 0xabcd);
        assert_eq!(mem.peek(3), Some(0xabce));
    }

    #[test]
    fn translation_failure_suppresses_access() {
        struct Deny;
        impl AddressTranslate for Deny {
            fn translate(&self, _m: u16, _a: u32) -> Option<u32> {
                None
            }
        }
        let (mut phv, mut mem) = setup();
        mem.write(0, 99).unwrap();
        let action = VliwAction::nop()
            .with(C::h4(0), AluInstruction::load(0))
            .with(C::h4(1), AluInstruction::store(C::h4(0), 0));
        let outcome = execute(&action, &mut phv, &mut mem, &Deny);
        assert_eq!(outcome.stateful_violations, 2);
        assert_eq!(phv.get(C::h4(0)), 0, "load suppressed");
        assert_eq!(mem.peek(0), Some(99), "store suppressed");
    }

    #[test]
    fn metadata_ops() {
        let (mut phv, mut mem) = setup();
        let action = VliwAction::nop().with_metadata(AluInstruction::port(5));
        execute(&action, &mut phv, &mut mem, &IdentityTranslation);
        assert_eq!(phv.metadata.dst_port, 5);
        assert!(!phv.metadata.discard);

        let action = VliwAction::nop().with_metadata(AluInstruction::discard());
        let outcome = execute(&action, &mut phv, &mut mem, &IdentityTranslation);
        assert!(outcome.discarded);
        assert!(phv.metadata.discard);
    }

    #[test]
    fn nop_action_changes_nothing() {
        let (mut phv, mut mem) = setup();
        phv.set(C::h6(3), 42);
        let before = phv.clone();
        let outcome = execute(&VliwAction::nop(), &mut phv, &mut mem, &IdentityTranslation);
        assert_eq!(outcome.alus_fired, 0);
        assert_eq!(phv, before);
    }

    /// No opcode writes the system fields: decode every 4-bit code, run
    /// each op on every slot (header ALUs and the metadata ALU at slot 24)
    /// over a PHV whose system fields hold sentinels, and check that none
    /// of them moved. Only `dst_port` and `discard` are the action's to
    /// write.
    #[test]
    fn no_opcode_writes_the_system_fields() {
        let system = |phv: &Phv| {
            let m = &phv.metadata;
            (
                phv.module_id,
                m.src_port,
                m.pkt_len,
                m.multicast_group,
                m.queue_len,
                m.enqueue_cycle,
                m.buffer_tag,
            )
        };
        let mut sentinel = Phv::zeroed();
        sentinel.module_id = 0x0abc;
        sentinel.metadata.src_port = 0x1234;
        sentinel.metadata.pkt_len = 0x0555;
        sentinel.metadata.multicast_group = 0x0777;
        sentinel.metadata.queue_len = 0x00c0_ffee;
        sentinel.metadata.enqueue_cycle = 0x0bad_cafe;
        sentinel.metadata.buffer_tag = 0x40;
        for slot in 0..NUM_HEADER_CONTAINERS {
            sentinel.set(C::from_flat_index(slot).unwrap(), 0xffff_ffff_ffff);
        }
        let mut decoded = 0;
        for code in 0..=15u8 {
            let Ok(Some(op)) = AluOp::from_code(code) else {
                continue;
            };
            decoded += 1;
            let instr = AluInstruction {
                op,
                operand_a: Some(C::h4(0)),
                operand_b: if op.uses_immediate() {
                    Operand::Immediate(3)
                } else {
                    Operand::Container(C::h6(7))
                },
            };
            for slot in 0..NUM_CONTAINERS {
                let mut action = VliwAction::nop();
                action.set_slot(slot, Some(instr)).unwrap();
                let (_, mut mem) = setup();
                let mut phv = sentinel.clone();
                execute(&action, &mut phv, &mut mem, &IdentityTranslation);
                assert_eq!(
                    system(&phv),
                    system(&sentinel),
                    "{op} on slot {slot} wrote a system field"
                );
            }
        }
        assert_eq!(decoded, 10, "codes 1..=10 decode, 0 and 11..=15 do not");
    }

    #[test]
    fn container_width_wraps_on_overflow() {
        let (mut phv, mut mem) = setup();
        phv.set(C::h2(0), 0xffff);
        let action = VliwAction::nop().with(C::h2(0), AluInstruction::addi(C::h2(0), 1));
        execute(&action, &mut phv, &mut mem, &IdentityTranslation);
        assert_eq!(phv.get(C::h2(0)), 0, "2-byte container wraps at 16 bits");
    }
}
