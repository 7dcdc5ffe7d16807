//! The Menshen compiler: a P4-16-like module DSL front end and the Menshen
//! backend described in §3.4 / §4.2 of the paper.
//!
//! The paper's compiler reuses the open-source P4-16 reference compiler's
//! front/mid end and adds a ~3.8 kLoC backend. That ecosystem is not
//! available here, so this crate provides a self-contained front end for a
//! P4-16-like DSL (headers, a linear parser, exact-match tables, actions,
//! registers, an `apply` block) plus the backend proper:
//!
//! * the three static checks of §3.4 ([`checks`]): no writes to
//!   system-provided statistics, no VLAN-ID modification, no recirculation;
//! * resource-usage checking against the pipeline parameters;
//! * table-dependency analysis and stage allocation;
//! * PHV-container allocation and parser/deparser entry generation;
//! * key-extractor / key-mask / VLIW-action / segment configuration
//!   generation ([`codegen`]), emitted as a `menshen_core::ModuleConfig` that
//!   loads directly onto the [`menshen_core::MenshenPipeline`];
//! * generation of the initial set of distinct match-action entries that the
//!   paper's compiler produces on every (re)compilation — the quantity swept
//!   by Figure 8.
//!
//! # Example
//!
//! ```
//! use menshen_compiler::{compile_source, CompileOptions};
//!
//! let source = r#"
//! module fwd {
//!     parser { extract ethernet; extract vlan; extract ipv4; extract udp; }
//!     table route { key = { ipv4.dst_addr; } actions = { to_port_1; } }
//!     action to_port_1() { set_port(1); }
//!     apply { route.apply(); }
//! }
//! "#;
//! let compiled = compile_source(source, &CompileOptions::new(7)).unwrap();
//! assert_eq!(compiled.config.name, "fwd");
//! assert_eq!(compiled.table("route").unwrap().stage, 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
pub mod checks;
pub mod codegen;
pub mod error;
pub mod layout;
pub mod lexer;
pub mod parser;

pub use ast::{ActionDecl, Expr, FieldRef, HeaderDecl, ModuleAst, StateDecl, Statement, TableDecl};
pub use checks::{check_module, classify_state_mergeability, SourceStateMergeability};
pub use codegen::{compile_ast, table_dependencies, CompileOptions, CompiledModule, CompiledTable};
pub use error::CompileError;
pub use layout::{builtin_field, resolve_field, FieldLocation, PhvAllocation};
pub use parser::parse_module;

/// Result alias used across the crate.
pub type Result<T> = core::result::Result<T, CompileError>;

/// Parses, checks and compiles a DSL module in one call.
pub fn compile_source(source: &str, options: &CompileOptions) -> Result<CompiledModule> {
    let ast = parse_module(source)?;
    compile_ast(&ast, options)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compile_source_end_to_end() {
        let source = r#"
module quick {
    parser { extract ipv4; extract udp; }
    table t { key = { udp.dst_port; } actions = { drop_it; } }
    action drop_it() { mark_drop(); }
    apply { t.apply(); }
}
"#;
        let compiled =
            compile_source(source, &CompileOptions::new(9).with_initial_entries(3)).unwrap();
        assert_eq!(compiled.config.module_id.value(), 9);
        assert_eq!(compiled.generated_entries(), 3);
    }

    #[test]
    fn compile_source_reports_parse_and_check_errors() {
        assert!(compile_source("not a module", &CompileOptions::new(1)).is_err());
        let recirc = r#"
module bad {
    parser { extract ipv4; }
    table t { key = { ipv4.dst_addr; } actions = { a; } }
    action a() { recirculate(); }
    apply { t.apply(); }
}
"#;
        let err = compile_source(recirc, &CompileOptions::new(1)).unwrap_err();
        assert!(matches!(err, CompileError::StaticCheck(_)));
    }
}
