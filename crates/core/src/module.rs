//! Module identities, per-module resource requests and compiled configurations.
//!
//! A *module* is one isolated packet-processing program (one tenant's P4
//! program in the paper's terminology). Modules are identified on the wire by
//! the packet's VLAN ID (12 bits) and inside the pipeline by the same value.

use crate::digest::DigestSpec;
use menshen_rmt::action::{AluOp, VliwAction};
use menshen_rmt::config::{KeyExtractEntry, KeyMask, ParserEntry};
use menshen_rmt::match_table::{LookupKey, MatchKind};

/// A module identifier: the 12-bit VLAN ID carried by the module's packets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ModuleId(pub u16);

impl ModuleId {
    /// Maximum representable module ID (12 bits).
    pub const MAX: u16 = 0x0fff;

    /// Creates a module ID, truncating to 12 bits.
    pub const fn new(id: u16) -> Self {
        ModuleId(id & Self::MAX)
    }

    /// The numeric value.
    pub const fn value(&self) -> u16 {
        self.0
    }
}

impl From<u16> for ModuleId {
    fn from(v: u16) -> Self {
        ModuleId::new(v)
    }
}

impl core::fmt::Display for ModuleId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "module {}", self.0)
    }
}

/// An amount of each partitioned resource (per stage where applicable): what
/// a compiled module uses ([`ModuleConfig::usage`]), which admission control
/// compares with the sharing policy's share (§3.4,
/// [`MenshenPipeline::check_module_config`](crate::pipeline::MenshenPipeline::check_module_config)).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResourceAllocation {
    /// Match-action entries the module may occupy in each stage.
    pub match_entries_per_stage: Vec<usize>,
    /// Words of stateful memory the module may occupy in each stage.
    pub stateful_words_per_stage: Vec<usize>,
}

/// One match-action rule of a compiled module: a masked key and the VLIW
/// action to run on a hit. The module ID is appended by the pipeline when the
/// rule is installed, so a module cannot spoof another's rules.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MatchRule {
    /// The (already masked) lookup key.
    pub key: LookupKey,
    /// The VLIW action executed on a hit.
    pub action: VliwAction,
}

/// One longest-prefix-match rule of a compiled module. The action index is
/// *module-local*: it names an entry of the stage's
/// [`StageModuleConfig::table_actions`] list and is rebased onto the module's
/// partitioned action range when installed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LpmMatchRule {
    /// The prefix value (high bits significant, low bits ignored).
    pub prefix: u32,
    /// The prefix length in bits (0..=32).
    pub prefix_len: u8,
    /// Module-local action index into `table_actions`.
    pub action: u16,
}

/// One range (ternary interval) rule of a compiled module; action index is
/// module-local like [`LpmMatchRule::action`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RangeMatchRule {
    /// Inclusive lower bound of the matched field value.
    pub lo: u64,
    /// Inclusive upper bound.
    pub hi: u64,
    /// Rule priority: higher wins; ties go to the earlier install.
    pub priority: u16,
    /// Module-local action index into `table_actions`.
    pub action: u16,
}

/// One rule for a flat (LPM or range) match table — the unit of incremental
/// rule install on the control path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TableRule {
    /// A longest-prefix-match rule.
    Lpm(LpmMatchRule),
    /// A range (ternary interval) rule.
    Range(RangeMatchRule),
}

/// Per-stage portion of a compiled module configuration.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StageModuleConfig {
    /// Key-extractor entry for this module in this stage, if the module has a
    /// table in this stage.
    pub key_extract: Option<KeyExtractEntry>,
    /// Key mask for this module in this stage.
    pub key_mask: Option<KeyMask>,
    /// How this stage's table matches: exact (CAM), LPM or range. LPM/range
    /// stages put their rules in `lpm_rules`/`range_rules` and their actions
    /// in `table_actions`; exact stages use `rules`.
    pub match_kind: MatchKind,
    /// Match-action rules to install in this stage (exact match kind).
    pub rules: Vec<MatchRule>,
    /// Shared VLIW actions for the LPM/range match kinds, installed into the
    /// module's partitioned action-table range; rules reference them by index.
    pub table_actions: Vec<VliwAction>,
    /// Longest-prefix-match rules (LPM match kind).
    pub lpm_rules: Vec<LpmMatchRule>,
    /// Range rules (range match kind).
    pub range_rules: Vec<RangeMatchRule>,
    /// Maximum rules the stage's LPM/range table may hold; 0 means the
    /// default ([`menshen_rmt::params::MATCH_TABLE_CAPACITY`]).
    pub table_capacity: usize,
    /// Words of stateful memory this module needs in this stage.
    pub stateful_words: usize,
}

impl StageModuleConfig {
    /// True if the module does nothing in this stage.
    pub fn is_empty(&self) -> bool {
        self.key_extract.is_none()
            && self.rules.is_empty()
            && self.table_actions.is_empty()
            && self.lpm_rules.is_empty()
            && self.range_rules.is_empty()
            && self.stateful_words == 0
    }
}

/// A fully compiled module: everything the software interface needs to load
/// it onto the pipeline. Produced by the Menshen compiler backend.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModuleConfig {
    /// The module's identity (VLAN ID).
    pub module_id: ModuleId,
    /// Human-readable name (for logs and statistics).
    pub name: String,
    /// Parser-table entry.
    pub parser: ParserEntry,
    /// Deparser-table entry.
    pub deparser: ParserEntry,
    /// Per-stage configuration, indexed by stage.
    pub stages: Vec<StageModuleConfig>,
}

impl ModuleConfig {
    /// Creates an empty configuration for `module_id` spanning `num_stages`.
    pub fn empty(module_id: ModuleId, name: impl Into<String>, num_stages: usize) -> Self {
        ModuleConfig {
            module_id,
            name: name.into(),
            parser: ParserEntry::default(),
            deparser: ParserEntry::default(),
            stages: vec![StageModuleConfig::default(); num_stages],
        }
    }

    /// Total number of match-action rules across all stages, all match kinds.
    pub fn total_rules(&self) -> usize {
        self.stages
            .iter()
            .map(|s| s.rules.len() + s.lpm_rules.len() + s.range_rules.len())
            .sum()
    }

    /// The resource usage of this configuration, for admission control.
    pub fn usage(&self) -> ResourceAllocation {
        ResourceAllocation {
            // LPM/range rules live in their own per-module flat tables; what
            // they consume from the *partitioned* stage resources is one
            // action-table entry per shared action.
            match_entries_per_stage: self
                .stages
                .iter()
                .map(|s| s.rules.len() + s.table_actions.len())
                .collect(),
            stateful_words_per_stage: self.stages.iter().map(|s| s.stateful_words).collect(),
        }
    }

    /// Classifies this module's stateful memory for replication across shard
    /// replicas, by walking every ALU of every compiled VLIW action — the
    /// same walk the compiler's static checker performs over register
    /// statements in the source, applied to the compiled form the runtime
    /// actually receives.
    ///
    /// Under 5-tuple RSS steering one tenant's flows spread over all shards
    /// and each shard updates its *own copy* of the module's stateful words.
    /// Per-shard copies merge exactly by summation only when every update is
    /// additive: `loadd` (read-add-write) qualifies; `store` (overwrite with
    /// a packet-derived value) does not — the merged value of
    /// last-writer-wins state is undefined. The sharded runtime therefore
    /// *replicates* non-mergeable modules: every shard keeps a full copy and
    /// replays per-packet [`DigestSpec`] digests of the packets it does not
    /// receive (State-Compute Replication).
    pub fn state_mergeability(&self) -> StateMergeability {
        let mut touches_state = false;
        for (stage, config) in self.stages.iter().enumerate() {
            let actions = config
                .rules
                .iter()
                .map(|r| &r.action)
                .chain(config.table_actions.iter());
            for (rule_index, action) in actions.enumerate() {
                if action_overwrites_state(action) {
                    return StateMergeability::NonMergeable {
                        stage,
                        detail: format!(
                            "rule {rule_index} executes `store` (overwrites a \
                             stateful word); only additive state merges across \
                             shard replicas"
                        ),
                    };
                }
                touches_state |= action_touches_state(action);
            }
        }
        if touches_state {
            StateMergeability::Mergeable
        } else {
            StateMergeability::Stateless
        }
    }

    /// The per-module state-digest recipe. Derived entirely from the parser
    /// entry because every input the module's matching and ALUs can observe
    /// arrives through a parser-filled PHV container; fails only on a parser
    /// the pipeline would refuse to load ([`ParserEntry::validate`]).
    pub fn digest_spec(&self) -> menshen_rmt::Result<DigestSpec> {
        DigestSpec::from_parser(self.module_id.value(), &self.parser)
    }
}

/// True if any ALU of `action` overwrites stateful memory (`store`) — the
/// operation that makes per-shard state replication non-mergeable.
pub fn action_overwrites_state(action: &VliwAction) -> bool {
    action
        .iter_active()
        .any(|(_, instruction)| instruction.op == AluOp::Store)
}

/// True if any ALU of `action` touches stateful memory at all.
pub fn action_touches_state(action: &VliwAction) -> bool {
    action
        .iter_active()
        .any(|(_, instruction)| instruction.op.is_stateful())
}

/// Whether a compiled module's stateful memory can be replicated per shard
/// and merged back by summation. See [`ModuleConfig::state_mergeability`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StateMergeability {
    /// The module never touches stateful memory; replication is trivially
    /// safe.
    Stateless,
    /// Every stateful update is additive (`loadd`); per-shard copies merge
    /// exactly by summation.
    Mergeable,
    /// At least one action overwrites stateful memory; per-shard copies
    /// cannot be merged into a well-defined value, so the sharded runtime
    /// replicates the module by digest instead.
    NonMergeable {
        /// The stage holding the offending rule.
        stage: usize,
        /// Which rule and why.
        detail: String,
    },
}

#[cfg(test)]
mod tests {
    use super::*;
    use menshen_rmt::params::PARSE_ACTIONS_PER_ENTRY;

    #[test]
    fn module_id_truncates_to_12_bits() {
        assert_eq!(ModuleId::new(0x1fff).value(), 0x0fff);
        assert_eq!(ModuleId::from(5u16).value(), 5);
        assert_eq!(ModuleId::new(7).to_string(), "module 7");
    }

    #[test]
    fn empty_config_reports_zero_usage() {
        let config = ModuleConfig::empty(ModuleId::new(3), "calc", 5);
        assert_eq!(config.total_rules(), 0);
        assert!(config.stages.iter().all(|s| s.is_empty()));
        let usage = config.usage();
        assert!(usage.match_entries_per_stage.iter().all(|&n| n == 0));
        assert!(usage.stateful_words_per_stage.iter().all(|&n| n == 0));
    }

    #[test]
    fn state_mergeability_classification() {
        use menshen_rmt::action::AluInstruction;
        use menshen_rmt::phv::ContainerRef as C;

        let mut config = ModuleConfig::empty(ModuleId::new(1), "m", 3);
        assert_eq!(config.state_mergeability(), StateMergeability::Stateless);

        // Pure header rewrites stay stateless.
        config.stages[0].rules.push(MatchRule {
            key: LookupKey::default(),
            action: VliwAction::nop().with(C::h2(0), AluInstruction::set(80)),
        });
        assert_eq!(config.state_mergeability(), StateMergeability::Stateless);

        // Additive counters (`loadd`) are mergeable.
        config.stages[0].rules.push(MatchRule {
            key: LookupKey::default(),
            action: VliwAction::nop().with(C::h4(7), AluInstruction::loadd(0)),
        });
        assert_eq!(config.state_mergeability(), StateMergeability::Mergeable);

        // One `store` anywhere makes the whole module non-mergeable.
        config.stages[2].rules.push(MatchRule {
            key: LookupKey::default(),
            action: VliwAction::nop().with(C::h4(3), AluInstruction::store(C::h4(1), 4)),
        });
        match config.state_mergeability() {
            StateMergeability::NonMergeable { stage, detail } => {
                assert_eq!(stage, 2);
                assert!(detail.contains("store"), "{detail}");
            }
            other => panic!("expected NonMergeable, got {other:?}"),
        }
    }

    #[test]
    fn execution_mode_refines_mergeability() {
        use menshen_rmt::action::AluInstruction;
        use menshen_rmt::config::ParseAction;
        use menshen_rmt::phv::ContainerRef as C;
        use menshen_rmt::RmtError;

        // A store makes the module non-mergeable, and a non-mergeable module
        // always replicates: its digest spec exists at every parser width a
        // table row holds, field for field.
        let mut config = ModuleConfig::empty(ModuleId::new(1), "m", 3);
        config.stages[0].rules.push(MatchRule {
            key: LookupKey::default(),
            action: VliwAction::nop().with(C::h4(3), AluInstruction::store(C::h4(1), 4)),
        });
        assert!(matches!(
            config.state_mergeability(),
            StateMergeability::NonMergeable { .. }
        ));
        let wide: Vec<ParseAction> = (0..=PARSE_ACTIONS_PER_ENTRY as u8)
            .map(|i| ParseAction::new(14 + 2 * i, C::h2(i % 8)).unwrap())
            .collect();
        for width in 0..=PARSE_ACTIONS_PER_ENTRY {
            config.parser = ParserEntry::new(wide[..width].to_vec()).unwrap();
            let spec = config.digest_spec().unwrap();
            assert_eq!(spec.fields().len(), width, "width {width}");
        }

        // One action past the row is the parser the pipeline refuses; the
        // spec fails with the same error instead of a narrower regime.
        config.parser.actions = wide;
        assert_eq!(
            config.digest_spec(),
            Err(RmtError::FieldOverflow {
                field: "parser entry action count"
            })
        );
    }

    #[test]
    fn usage_reflects_rules_and_state() {
        let mut config = ModuleConfig::empty(ModuleId::new(1), "m", 3);
        config.stages[1].rules.push(MatchRule {
            key: LookupKey::default(),
            action: VliwAction::nop(),
        });
        config.stages[2].stateful_words = 64;
        let usage = config.usage();
        assert_eq!(usage.match_entries_per_stage, vec![0, 1, 0]);
        assert_eq!(usage.stateful_words_per_stage, vec![0, 0, 64]);
        assert!(!config.stages[1].is_empty());
    }
}
