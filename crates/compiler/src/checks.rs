//! The Menshen static checker (§3.4).
//!
//! Three properties of a module's source are verified before compilation:
//!
//! 1. the module does not modify system-provided statistics (`sys.*`);
//! 2. the module does not modify its VLAN ID (module ID) — a module can span
//!    several devices and a changed VID on one device would mis-attribute its
//!    packets downstream;
//! 3. the module does not recirculate packets (all modules share ingress
//!    bandwidth, so recirculation would degrade others).
//!
//! Name-resolution sanity (every table/action/register/header referenced is
//! actually defined) is checked here too, so the backend can assume a
//! well-formed module.
//!
//! [`classify_state_mergeability`] is the source-level view of how a module
//! runs across shards: stateless or additive state splits per shard, while a
//! `reg.write` makes it non-mergeable and the sharded runtime replicates it
//! by digest. The layout caps a parser at one table row of extractions, so
//! every module the compiler emits digests.

use crate::ast::{Expr, FieldRef, ModuleAst, Statement, TableMatchKind};
use crate::error::CompileError;
use crate::layout::SYS_HEADER;
use crate::Result;

/// Runs every static check; returns the first violation found.
pub fn check_module(ast: &ModuleAst) -> Result<()> {
    check_name_resolution(ast)?;
    check_no_recirculation(ast)?;
    check_no_vid_modification(ast)?;
    check_no_system_stat_writes(ast)?;
    Ok(())
}

fn written_fields_of(statement: &Statement) -> Option<&FieldRef> {
    match statement {
        Statement::Assign { dst, .. }
        | Statement::RegisterRead { dst, .. }
        | Statement::RegisterCount { dst, .. } => Some(dst),
        _ => None,
    }
}

/// Check 3: no `recirculate()` anywhere.
pub fn check_no_recirculation(ast: &ModuleAst) -> Result<()> {
    for action in &ast.actions {
        if action
            .statements
            .iter()
            .any(|s| matches!(s, Statement::Recirculate))
        {
            return Err(CompileError::StaticCheck(format!(
                "action `{}` recirculates packets; recirculation is forbidden because all \
                 modules share ingress bandwidth",
                action.name
            )));
        }
    }
    Ok(())
}

/// Check 2: the module never writes its VLAN ID.
pub fn check_no_vid_modification(ast: &ModuleAst) -> Result<()> {
    for action in &ast.actions {
        for statement in &action.statements {
            if let Some(dst) = written_fields_of(statement) {
                if dst.header == "vlan" && (dst.field == "vid" || dst.field == "tci") {
                    return Err(CompileError::StaticCheck(format!(
                        "action `{}` modifies the VLAN ID; the module ID must not change \
                         inside the pipeline",
                        action.name
                    )));
                }
            }
        }
    }
    Ok(())
}

/// Check 1: system-provided statistics are read-only to modules.
pub fn check_no_system_stat_writes(ast: &ModuleAst) -> Result<()> {
    for action in &ast.actions {
        for statement in &action.statements {
            if let Some(dst) = written_fields_of(statement) {
                if dst.header == SYS_HEADER {
                    return Err(CompileError::StaticCheck(format!(
                        "action `{}` writes system statistic `{}`; these are provided by \
                         the system-level module and are read-only",
                        action.name,
                        dst.qualified()
                    )));
                }
            }
        }
    }
    Ok(())
}

/// Source-level classification of a module's stateful memory for shard
/// replication, produced by [`classify_state_mergeability`]. Mirrors
/// `menshen_core::StateMergeability`, which performs the same walk over the
/// *compiled* VLIW ALU ops; classifying at the source level lets tooling
/// reject a program before spending compilation on it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SourceStateMergeability {
    /// No register is ever touched.
    Stateless,
    /// Every register update is additive (`reg.count`), so per-shard copies
    /// of the state merge exactly by summation — safe to replicate under
    /// 5-tuple steering (the State-Compute-Replication regime).
    Mergeable,
    /// At least one action overwrites a register (`reg.write`): replicated
    /// copies have no well-defined merge.
    NonMergeable {
        /// The action containing the overwrite.
        action: String,
        /// The register being overwritten.
        register: String,
    },
}

/// Classifies a module's stateful behaviour by walking every register
/// statement of every action — the same walk the static checks above use.
/// `reg.count` (compiled to the additive `loadd` ALU op) is mergeable;
/// `reg.write` (compiled to `store`) is not; `reg.read` alone leaves the
/// state constant and is harmless.
pub fn classify_state_mergeability(ast: &ModuleAst) -> SourceStateMergeability {
    let mut touches_state = false;
    for action in &ast.actions {
        for statement in &action.statements {
            match statement {
                Statement::RegisterWrite { register, .. } => {
                    return SourceStateMergeability::NonMergeable {
                        action: action.name.clone(),
                        register: register.clone(),
                    };
                }
                Statement::RegisterCount { .. } | Statement::RegisterRead { .. } => {
                    touches_state = true;
                }
                _ => {}
            }
        }
    }
    if touches_state {
        SourceStateMergeability::Mergeable
    } else {
        SourceStateMergeability::Stateless
    }
}

/// Name resolution: tables in `apply` exist, actions named by tables exist,
/// registers used by actions exist, no duplicate definitions.
pub fn check_name_resolution(ast: &ModuleAst) -> Result<()> {
    // Duplicates.
    for (kind, names) in [
        (
            "header",
            ast.headers
                .iter()
                .map(|h| h.name.clone())
                .collect::<Vec<_>>(),
        ),
        ("table", ast.tables.iter().map(|t| t.name.clone()).collect()),
        (
            "action",
            ast.actions.iter().map(|a| a.name.clone()).collect(),
        ),
        ("state", ast.states.iter().map(|s| s.name.clone()).collect()),
    ] {
        let mut seen = std::collections::HashSet::new();
        for name in names {
            if !seen.insert(name.clone()) {
                return Err(CompileError::Duplicate { kind, name });
            }
        }
    }
    // Apply references.
    for table in &ast.apply {
        if ast.table(table).is_none() {
            return Err(CompileError::Undefined {
                kind: "table",
                name: table.clone(),
            });
        }
    }
    // Table → action references.
    for table in &ast.tables {
        for action in &table.actions {
            if ast.action(action).is_none() {
                return Err(CompileError::Undefined {
                    kind: "action",
                    name: action.clone(),
                });
            }
        }
        if table.keys.is_empty() {
            return Err(CompileError::StaticCheck(format!(
                "table `{}` has no key fields",
                table.name
            )));
        }
        // Flat match kinds run over one key field: the trie / interval
        // search consumes a single fixed-offset slice of the lookup key.
        if table.match_kind != TableMatchKind::Exact && table.keys.len() != 1 {
            return Err(CompileError::StaticCheck(format!(
                "table `{}` declares `match = {}` with {} key fields; LPM and \
                 range tables match exactly one field",
                table.name,
                match table.match_kind {
                    TableMatchKind::Lpm => "lpm",
                    _ => "range",
                },
                table.keys.len()
            )));
        }
    }
    // Action → register references.
    for action in &ast.actions {
        for statement in &action.statements {
            let register = match statement {
                Statement::RegisterRead { register, .. }
                | Statement::RegisterWrite { register, .. }
                | Statement::RegisterCount { register, .. } => Some(register),
                _ => None,
            };
            if let Some(register) = register {
                if ast.state(register).is_none() {
                    return Err(CompileError::Undefined {
                        kind: "state",
                        name: register.clone(),
                    });
                }
            }
            // Register indices must be compile-time constants: the VLIW ALU
            // address field is an immediate.
            let index = match statement {
                Statement::RegisterRead { index, .. }
                | Statement::RegisterWrite { index, .. }
                | Statement::RegisterCount { index, .. } => Some(index),
                _ => None,
            };
            if let Some(index) = index {
                if !matches!(index, Expr::Const(_)) {
                    return Err(CompileError::StaticCheck(format!(
                        "action `{}` indexes a register with a non-constant expression; \
                         register addresses must be compile-time constants",
                        action.name
                    )));
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_module;

    fn module_with_action(body: &str) -> ModuleAst {
        parse_module(&format!(
            r#"
module m {{
    parser {{ extract ipv4; }}
    state reg[16];
    table t {{ key = {{ ipv4.dst_addr; }} actions = {{ a; }} }}
    action a() {{ {body} }}
    apply {{ t.apply(); }}
}}
"#
        ))
        .unwrap()
    }

    #[test]
    fn clean_module_passes() {
        let ast = module_with_action("ipv4.dst_addr = 1; set_port(2);");
        assert!(check_module(&ast).is_ok());
    }

    #[test]
    fn recirculation_rejected() {
        let ast = module_with_action("recirculate();");
        let err = check_module(&ast).unwrap_err();
        assert!(err.to_string().contains("recircul"));
    }

    #[test]
    fn vid_modification_rejected() {
        for body in ["vlan.vid = 5;", "vlan.tci = reg.read(0);"] {
            let ast = module_with_action(body);
            let err = check_module(&ast).unwrap_err();
            assert!(err.to_string().contains("VLAN"), "body {body}: {err}");
        }
    }

    #[test]
    fn system_stat_writes_rejected() {
        let ast = module_with_action("sys.queue_len = 0;");
        let err = check_module(&ast).unwrap_err();
        assert!(err.to_string().contains("read-only"));
    }

    #[test]
    fn undefined_names_rejected() {
        let source = r#"
module m {
    parser { extract ipv4; }
    table t { key = { ipv4.dst_addr; } actions = { ghost; } }
    action a() { mark_drop(); }
    apply { t.apply(); nope.apply(); }
}
"#;
        let ast = parse_module(source).unwrap();
        let err = check_module(&ast).unwrap_err();
        assert!(matches!(err, CompileError::Undefined { .. }));
    }

    #[test]
    fn undefined_register_rejected() {
        let ast = module_with_action("ipv4.dst_addr = ghostreg.read(0);");
        assert!(matches!(
            check_module(&ast),
            Err(CompileError::Undefined { kind: "state", .. })
        ));
    }

    #[test]
    fn non_constant_register_index_rejected() {
        let ast = module_with_action("ipv4.dst_addr = reg.read(ipv4.src_addr);");
        let err = check_module(&ast).unwrap_err();
        assert!(err.to_string().contains("constant"));
    }

    #[test]
    fn duplicate_definitions_rejected() {
        let source = r#"
module m {
    parser { extract ipv4; }
    table t { key = { ipv4.dst_addr; } actions = { a; } }
    table t { key = { ipv4.src_addr; } actions = { a; } }
    action a() { mark_drop(); }
    apply { t.apply(); }
}
"#;
        let ast = parse_module(source).unwrap();
        assert!(matches!(
            check_module(&ast),
            Err(CompileError::Duplicate { .. })
        ));
    }

    #[test]
    fn state_mergeability_matches_the_compiled_classification() {
        use crate::{compile_source, CompileOptions};
        use menshen_core::StateMergeability;

        let cases = [
            ("set_port(2);", SourceStateMergeability::Stateless),
            (
                "ipv4.dst_addr = reg.count(0); set_port(2);",
                SourceStateMergeability::Mergeable,
            ),
            (
                "reg.write(0, ipv4.dst_addr); set_port(2);",
                SourceStateMergeability::NonMergeable {
                    action: "a".into(),
                    register: "reg".into(),
                },
            ),
        ];
        for (body, expected) in cases {
            let ast = module_with_action(body);
            assert_eq!(classify_state_mergeability(&ast), expected, "body {body}");

            // The source-level walk and the compiled-form walk
            // (`ModuleConfig::state_mergeability`) must agree: the runtime
            // enforces the compiled form, tooling the source form.
            let source = format!(
                r#"
module m {{
    parser {{ extract ipv4; }}
    state reg[16];
    table t {{ key = {{ ipv4.dst_addr; }} actions = {{ a; }} }}
    action a() {{ {body} }}
    apply {{ t.apply(); }}
}}
"#
            );
            // Install one entry per table so the compiled config carries the
            // action's VLIW form (the compiled walk inspects installed
            // rules — exactly what the runtime replicates).
            let compiled =
                compile_source(&source, &CompileOptions::new(7).with_initial_entries(1)).unwrap();
            let compiled_class = compiled.config.state_mergeability();
            match (&expected, &compiled_class) {
                (SourceStateMergeability::Stateless, StateMergeability::Stateless)
                | (SourceStateMergeability::Mergeable, StateMergeability::Mergeable)
                | (
                    SourceStateMergeability::NonMergeable { .. },
                    StateMergeability::NonMergeable { .. },
                ) => {}
                (source_class, compiled) => {
                    panic!("body {body}: source {source_class:?} vs compiled {compiled:?}")
                }
            }
        }
    }

    #[test]
    fn execution_mode_matches_the_compiled_classification() {
        use crate::{compile_source, CompileOptions};

        // The runtime replicates exactly the non-mergeable modules, by a
        // digest that mirrors the compiled parser; the source classifier
        // must predict which modules those are.
        let cases = [
            ("set_port(2);", false),
            ("ipv4.dst_addr = reg.count(0); set_port(2);", false),
            ("reg.write(0, ipv4.dst_addr); set_port(2);", true),
        ];
        for (body, replicated) in cases {
            let ast = module_with_action(body);
            assert_eq!(
                matches!(
                    classify_state_mergeability(&ast),
                    SourceStateMergeability::NonMergeable { .. }
                ),
                replicated,
                "body {body}"
            );

            let source = format!(
                r#"
module m {{
    parser {{ extract ipv4; }}
    state reg[16];
    table t {{ key = {{ ipv4.dst_addr; }} actions = {{ a; }} }}
    action a() {{ {body} }}
    apply {{ t.apply(); }}
}}
"#
            );
            let compiled =
                compile_source(&source, &CompileOptions::new(7).with_initial_entries(1)).unwrap();
            assert_eq!(
                matches!(
                    compiled.config.state_mergeability(),
                    menshen_core::StateMergeability::NonMergeable { .. }
                ),
                replicated,
                "body {body}: source and compiled classifiers must agree"
            );
            let spec = compiled.config.digest_spec().unwrap();
            assert_eq!(spec.fields().len(), compiled.config.parser.actions.len());
        }
    }

    #[test]
    fn wide_parser_storing_module_digests() {
        // Nine distinct fields (spread over the 2- and 4-byte container
        // classes so the PHV allocation succeeds): the storing module is
        // non-mergeable in both the source and the compiled classification,
        // and its compiled parser projects into a digest field for field,
        // so the runtime replicates it.
        let fields: Vec<String> = (0..9)
            .map(|i| format!("f{i} : {};", if i < 5 { 16 } else { 32 }))
            .collect();
        let keys = "h.f0;";
        let source = format!(
            r#"
module m {{
    header h {{ {} }}
    parser {{ extract h; }}
    state reg[16];
    table t {{ key = {{ {keys} }} actions = {{ a; }} }}
    action a() {{ reg.write(0, h.f1); h.f2 = h.f3; h.f4 = h.f5; h.f6 = h.f7; h.f8 = 1; set_port(2); }}
    apply {{ t.apply(); }}
}}
"#,
            fields.join(" ")
        );
        let ast = parse_module(&source).unwrap();
        assert!(matches!(
            classify_state_mergeability(&ast),
            SourceStateMergeability::NonMergeable { .. }
        ));
        use crate::{compile_source, CompileOptions};
        use menshen_core::StateMergeability;
        let compiled =
            compile_source(&source, &CompileOptions::new(7).with_initial_entries(1)).unwrap();
        assert!(matches!(
            compiled.config.state_mergeability(),
            StateMergeability::NonMergeable { .. }
        ));
        let spec = compiled.config.digest_spec().unwrap();
        assert_eq!(spec.fields().len(), 9);
        assert_eq!(spec.fields().len(), compiled.config.parser.actions.len());
    }

    #[test]
    fn keyless_table_rejected() {
        let source = r#"
module m {
    parser { extract ipv4; }
    table t { key = { } actions = { a; } }
    action a() { mark_drop(); }
    apply { t.apply(); }
}
"#;
        let ast = parse_module(source).unwrap();
        assert!(check_module(&ast).is_err());
    }
}
