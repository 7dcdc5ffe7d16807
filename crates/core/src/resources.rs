//! Resource-sharing policies (§3.4).
//!
//! Menshen checks allocations statically: a module is only admitted if its
//! compiled resource usage fits within the share the operator's sharing
//! policy grants it. Reassigning resources between running modules would
//! disrupt both, so admission control is the enforcement point. The policy is
//! a property of the pipeline ([`MenshenPipeline::set_sharing_policy`]) and
//! is applied by [`MenshenPipeline::check_module_config`], the one admission
//! check every load and update passes — on a lone pipeline, on every shard
//! replica of the sharded runtime, and on replay of its control log.
//!
//! [`MenshenPipeline::set_sharing_policy`]: crate::pipeline::MenshenPipeline::set_sharing_policy
//! [`MenshenPipeline::check_module_config`]: crate::pipeline::MenshenPipeline::check_module_config

/// Operator-specified policies for dividing the pipeline between modules.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum SharingPolicy {
    /// Divide every resource evenly between `max_modules` modules.
    EqualShare {
        /// The number of modules the pipeline is provisioned for.
        max_modules: usize,
    },
    /// Grant each module exactly what it asks for, first come first served,
    /// until the pipeline is exhausted (the range allocator's own limit).
    #[default]
    FirstComeFirstServed,
}

impl SharingPolicy {
    /// The most one module may hold, per stage, of a resource with `total`
    /// units per stage; `None` when the policy sets no limit beyond what is
    /// still free.
    pub fn share(self, total: usize) -> Option<usize> {
        match self {
            SharingPolicy::EqualShare { max_modules } => Some((total / max_modules.max(1)).max(1)),
            SharingPolicy::FirstComeFirstServed => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::CoreError;
    use crate::module::{MatchRule, ModuleConfig, ModuleId};
    use crate::pipeline::MenshenPipeline;
    use menshen_rmt::action::VliwAction;
    use menshen_rmt::match_table::LookupKey;
    use menshen_rmt::TABLE5;

    fn config_with_rules(rules_in_stage_0: usize) -> ModuleConfig {
        let mut config = ModuleConfig::empty(ModuleId::new(1), "m", 5);
        for i in 0..rules_in_stage_0 {
            config.stages[0].rules.push(MatchRule {
                key: LookupKey::from_slots(
                    [(0, 6), (0, 6), (i as u64 + 1, 4), (0, 4), (0, 2), (0, 2)],
                    false,
                ),
                action: VliwAction::nop(),
            });
        }
        config
    }

    fn pipeline_under(policy: SharingPolicy) -> MenshenPipeline {
        let mut pipeline = MenshenPipeline::new(TABLE5);
        pipeline.set_sharing_policy(policy);
        pipeline
    }

    #[test]
    fn equal_share_divides_cam_entries() {
        let policy = SharingPolicy::EqualShare { max_modules: 8 };
        assert_eq!(policy.share(TABLE5.cam_depth), Some(2));
        assert_eq!(policy.share(TABLE5.stateful_words), Some(512));
        let pipeline = pipeline_under(policy);
        assert_eq!(pipeline.sharing_policy(), policy);
        // The grant is per stage: two entries and 512 words in every stage.
        let mut config = config_with_rules(2);
        for stage in &mut config.stages {
            stage.stateful_words = 512;
        }
        config.stages[4].rules = config.stages[0].rules.clone();
        assert_eq!(pipeline.check_module_config(&config), Ok(()));
    }

    #[test]
    fn over_allocation_is_rejected() {
        let mut pipeline = pipeline_under(SharingPolicy::EqualShare { max_modules: 8 });
        assert!(pipeline.load_module(&config_with_rules(2)).is_ok());
        let mut config = config_with_rules(3);
        config.module_id = ModuleId::new(2);
        let err = pipeline.load_module(&config).unwrap_err();
        assert!(matches!(err, CoreError::AllocationExceeded { .. }));
        assert!(err.to_string().contains("stage 0"));
        assert_eq!(pipeline.loaded_modules(), vec![ModuleId::new(1)]);
    }

    #[test]
    fn fcfs_grants_exactly_the_request() {
        let pipeline = pipeline_under(SharingPolicy::FirstComeFirstServed);
        assert_eq!(
            SharingPolicy::default(),
            SharingPolicy::FirstComeFirstServed
        );
        assert_eq!(
            SharingPolicy::FirstComeFirstServed.share(TABLE5.cam_depth),
            None
        );
        // The whole stage is one module's for the asking.
        let config = config_with_rules(TABLE5.cam_depth);
        assert_eq!(pipeline.check_module_config(&config), Ok(()));
        assert_eq!(config.usage().match_entries_per_stage[0], TABLE5.cam_depth);
    }

    #[test]
    fn too_many_stages_rejected() {
        let mut pipeline = pipeline_under(SharingPolicy::FirstComeFirstServed);
        let config = ModuleConfig::empty(ModuleId::new(2), "deep", TABLE5.num_stages + 4);
        let err = pipeline.check_module_config(&config).unwrap_err();
        assert!(err.to_string().contains("stages"), "{err}");
        assert_eq!(pipeline.load_module(&config), Err(err));
        assert!(pipeline.loaded_modules().is_empty());
        assert_eq!(pipeline.free_slots(), pipeline.params().overlay_depth);
    }

    #[test]
    fn stateful_over_use_rejected() {
        let mut pipeline = pipeline_under(SharingPolicy::EqualShare { max_modules: 64 });
        let mut config = ModuleConfig::empty(ModuleId::new(3), "stateful", 5);
        config.stages[2].stateful_words = 64;
        assert_eq!(pipeline.check_module_config(&config), Ok(()));
        config.stages[2].stateful_words = 128;
        let err = pipeline.load_module(&config).unwrap_err();
        assert_eq!(
            err,
            CoreError::AllocationExceeded {
                resource: "stateful memory, stage 2".into(),
                used: 128,
                allocated: 64,
            }
        );
        assert!(err.to_string().contains("stateful"));
    }

    #[test]
    fn admission_control_rejects_oversized_modules() {
        // EqualShare over 16 modules grants 1 CAM entry per stage; a module
        // with 3 rules in stage 0 must be rejected before touching hardware.
        let mut pipeline = pipeline_under(SharingPolicy::EqualShare { max_modules: 16 });
        let reconfig_packets = pipeline.filter().reconfig_counter();
        assert!(matches!(
            pipeline.load_module(&config_with_rules(3)),
            Err(CoreError::AllocationExceeded { .. })
        ));
        assert!(pipeline.loaded_modules().is_empty());
        assert_eq!(pipeline.filter().reconfig_counter(), reconfig_packets);
        // Updates pass the same check: a module admitted at its share cannot
        // grow past it.
        pipeline.load_module(&config_with_rules(1)).unwrap();
        assert!(matches!(
            pipeline.update_module(&config_with_rules(2)),
            Err(CoreError::AllocationExceeded { .. })
        ));
        assert_eq!(pipeline.loaded_modules(), vec![ModuleId::new(1)]);
    }
}
