//! Resource-isolation and module-packing integration tests (§2.1 requirement
//! 2, §5.2 "how many modules can be packed?").

use menshen::prelude::*;
use menshen_core::CoreError;
use menshen_programs::netcache::NetCache;
use menshen_rmt::action::VliwAction;
use menshen_rmt::match_table::LookupKey;
use menshen_runtime::RuntimeError;

/// A module with `rules` match entries in stage 0 and `stateful` words.
fn synthetic_module(module_id: u16, rules: usize, stateful: usize) -> ModuleConfig {
    let mut config = ModuleConfig::empty(ModuleId::new(module_id), "synthetic", 5);
    for i in 0..rules {
        config.stages[0].rules.push(MatchRule {
            key: LookupKey::from_slots(
                [(0, 6), (0, 6), (i as u64 + 1, 4), (0, 4), (0, 2), (0, 2)],
                false,
            ),
            action: VliwAction::nop(),
        });
    }
    config.stages[0].stateful_words = stateful;
    config
}

#[test]
fn packing_matches_section_5_2() {
    // One match entry per stage per module → at most 16 modules (CAM depth).
    let mut pipeline = MenshenPipeline::new(TABLE5);
    let loaded = (1..=40u16)
        .filter(|&id| pipeline.load_module(&synthetic_module(id, 1, 0)).is_ok())
        .count();
    assert_eq!(loaded, 16);

    // No match entries → the 32 overlay slots are the limit.
    let mut pipeline = MenshenPipeline::new(TABLE5);
    let loaded = (1..=40u16)
        .filter(|&id| pipeline.load_module(&synthetic_module(id, 0, 0)).is_ok())
        .count();
    assert_eq!(loaded, 32);

    // More hardware (deeper tables) packs more modules — the §5.2 point that
    // the limit is purely a provisioning choice — up to the 32 modules the
    // packet filter's being-reconfigured bitmap can mark: a module in a slot
    // past it could not be stopped while it is rewritten, so the pipeline
    // caps the overlay depth there and says so in its parameters.
    let bigger = TABLE5.with_table_depth(64).with_overlay_depth(64);
    let mut pipeline = MenshenPipeline::new(bigger);
    assert_eq!(pipeline.params().overlay_depth, 32);
    let loaded = (1..=100u16)
        .filter(|&id| pipeline.load_module(&synthetic_module(id, 1, 0)).is_ok())
        .count();
    assert_eq!(loaded, 32);
}

#[test]
fn admission_control_enforces_the_sharing_policy() {
    let mut pipeline = MenshenPipeline::new(TABLE5);
    pipeline.set_sharing_policy(SharingPolicy::EqualShare { max_modules: 8 });
    // Each module may use 16/8 = 2 entries per stage under equal sharing.
    assert!(pipeline.load_module(&synthetic_module(1, 2, 0)).is_ok());
    let err = pipeline
        .load_module(&synthetic_module(2, 3, 0))
        .unwrap_err();
    assert!(matches!(err, CoreError::AllocationExceeded { .. }));
}

/// The policy is a property of the pipeline handed to the runtime, so every
/// shard replica admits under it: `EqualShare { max_modules: 4 }` grants 4
/// CAM entries per stage on `TABLE5`, on either backend.
#[test]
fn the_sharing_policy_holds_on_every_runtime_load_path() {
    let policy = SharingPolicy::EqualShare { max_modules: 4 };
    let mut template = MenshenPipeline::new(TABLE5);
    template.set_sharing_policy(policy);
    for options in [
        RuntimeOptions::deterministic(2),
        RuntimeOptions::threaded(2),
    ] {
        let mut runtime = ShardedRuntime::from_pipeline(&template, options);
        assert_eq!(runtime.standby_replica().sharing_policy(), policy);
        runtime.load_module(&synthetic_module(2, 4, 0)).unwrap();
        let epoch = runtime.current_epoch();
        assert_eq!(epoch, 1);
        assert!(matches!(
            runtime.load_module(&synthetic_module(1, 5, 0)),
            Err(RuntimeError::Rejected(CoreError::AllocationExceeded {
                used: 5,
                allocated: 4,
                ..
            }))
        ));
        assert_eq!(runtime.current_epoch(), epoch, "no epoch was published");
        // An update of the running module is held to the same share.
        assert!(matches!(
            runtime.update_module(&synthetic_module(2, 5, 0)),
            Err(RuntimeError::Rejected(CoreError::AllocationExceeded { .. }))
        ));
        assert_eq!(runtime.current_epoch(), epoch, "no epoch was published");
        assert_eq!(runtime.standby_replica().sharing_policy(), policy);
        assert_eq!(
            runtime.standby_replica().loaded_modules(),
            vec![ModuleId::new(2)]
        );
        runtime.shutdown();
    }
}

#[test]
fn stateful_memory_cannot_be_reached_across_modules() {
    // Two NetCache instances hammer the *same* module-local addresses; their
    // counters must stay independent because the segment table maps them to
    // disjoint physical ranges.
    let mut pipeline = MenshenPipeline::new(TABLE5);
    let cache_a = NetCache::new();
    let cache_b = NetCache::new();
    pipeline.load_module(&cache_a.build(1).unwrap()).unwrap();
    pipeline.load_module(&cache_b.build(2).unwrap()).unwrap();

    for packet in cache_a.packets(1, 40, 1) {
        pipeline.process(packet);
    }
    // Module 2 has not sent anything: all of its counters must still be zero.
    for slot in 0..4 {
        assert_eq!(pipeline.read_stateful(ModuleId::new(2), 0, slot), Some(0));
    }
    // Module 1's counters did move.
    let total: u64 = (0..4)
        .map(|slot| pipeline.read_stateful(ModuleId::new(1), 0, slot).unwrap())
        .sum();
    assert!(total > 0);
}

#[test]
fn over_quota_runtime_insertions_are_refused() {
    let mut pipeline = MenshenPipeline::new(TABLE5);
    // Fill the whole stage-0 CAM with one module…
    pipeline.load_module(&synthetic_module(1, 16, 0)).unwrap();
    // …then a second module cannot even load with a single entry…
    assert!(matches!(
        pipeline.load_module(&synthetic_module(2, 1, 0)),
        Err(CoreError::InsufficientResource { .. })
    ));
    // …and module 1 itself cannot grow to a 17th rule: the update is refused
    // before the running program is unloaded, so it keeps forwarding.
    assert!(matches!(
        pipeline.update_module(&synthetic_module(1, 17, 0)),
        Err(CoreError::InsufficientResource {
            requested: 17,
            available: 16,
            ..
        })
    ));
    assert_eq!(pipeline.loaded_modules(), vec![ModuleId::new(1)]);
    let packet = PacketBuilder::udp_data(1, [10, 0, 0, 1], [10, 0, 0, 2], 1, 2, &[0u8; 4]);
    assert!(matches!(
        pipeline.process(packet),
        Verdict::Forwarded { module_id: 1, .. }
    ));
}

#[test]
fn stateful_exhaustion_is_rejected_at_load_time() {
    let mut pipeline = MenshenPipeline::new(TABLE5);
    // The prototype stage has 4096 stateful words; a second module asking for
    // the remainder plus one is refused, and the refusal leaves no residue.
    pipeline.load_module(&synthetic_module(1, 0, 4000)).unwrap();
    let err = pipeline
        .load_module(&synthetic_module(2, 0, 200))
        .unwrap_err();
    assert!(matches!(err, CoreError::InsufficientResource { .. }));
    assert_eq!(pipeline.loaded_modules(), vec![ModuleId::new(1)]);
    // A right-sized module still fits afterwards.
    assert!(pipeline.load_module(&synthetic_module(3, 0, 96)).is_ok());
}
