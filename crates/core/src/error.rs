//! Error type for the Menshen isolation layer.

use core::fmt;
use menshen_rmt::RmtError;

/// Errors reported by the Menshen pipeline, its isolation primitives and the
/// software-to-hardware interface.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoreError {
    /// An error bubbled up from the underlying RMT hardware model.
    Rmt(RmtError),
    /// The module ID is not loaded on this pipeline.
    UnknownModule {
        /// The offending module ID (VLAN ID).
        module_id: u16,
    },
    /// The module ID is already loaded.
    ModuleAlreadyLoaded {
        /// The offending module ID.
        module_id: u16,
    },
    /// All overlay-table slots are occupied: no more modules can be loaded.
    NoFreeModuleSlot {
        /// Number of slots (the overlay depth).
        capacity: usize,
    },
    /// A resource request exceeds what is left of the partitioned resource.
    InsufficientResource {
        /// Name of the resource (e.g. "match entries, stage 2").
        resource: String,
        /// Amount requested.
        requested: usize,
        /// The most one request could still be granted (for a contiguous
        /// range resource, the largest free gap).
        available: usize,
    },
    /// The module's declared usage exceeds its allocation (admission control).
    AllocationExceeded {
        /// Name of the resource.
        resource: String,
        /// Usage declared/required by the module.
        used: usize,
        /// Amount allocated to the module.
        allocated: usize,
    },
    /// A reconfiguration packet could not be decoded.
    BadReconfigPacket(&'static str),
    /// A reconfiguration was attempted from the data path (untrusted source).
    UntrustedReconfiguration,
    /// The module is currently being reconfigured and cannot serve packets.
    ModuleBeingReconfigured {
        /// The module in question.
        module_id: u16,
    },
    /// A static or resource check failed (message from the checker).
    CheckFailed(String),
    /// An exported [`crate::pipeline::ModuleState`] does not fit the target
    /// replica's configuration (different stage count or segment size) — the
    /// source and target are not configuration replicas of each other.
    StateShapeMismatch {
        /// The module whose state was being imported.
        module_id: u16,
        /// What differed.
        detail: String,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Rmt(e) => write!(f, "RMT error: {e}"),
            CoreError::UnknownModule { module_id } => {
                write!(f, "module {module_id} is not loaded")
            }
            CoreError::ModuleAlreadyLoaded { module_id } => {
                write!(f, "module {module_id} is already loaded")
            }
            CoreError::NoFreeModuleSlot { capacity } => {
                write!(f, "all {capacity} module slots are in use")
            }
            CoreError::InsufficientResource {
                resource,
                requested,
                available,
            } => write!(
                f,
                "insufficient {resource}: requested {requested}, available {available}"
            ),
            CoreError::AllocationExceeded {
                resource,
                used,
                allocated,
            } => write!(
                f,
                "allocation exceeded for {resource}: uses {used}, allocated {allocated}"
            ),
            CoreError::BadReconfigPacket(reason) => {
                write!(f, "malformed reconfiguration packet: {reason}")
            }
            CoreError::UntrustedReconfiguration => {
                write!(f, "reconfiguration attempted from an untrusted source")
            }
            CoreError::ModuleBeingReconfigured { module_id } => {
                write!(f, "module {module_id} is being reconfigured")
            }
            CoreError::CheckFailed(msg) => write!(f, "check failed: {msg}"),
            CoreError::StateShapeMismatch { module_id, detail } => write!(
                f,
                "module {module_id} state snapshot does not fit this replica: {detail}"
            ),
        }
    }
}

impl std::error::Error for CoreError {}

impl From<RmtError> for CoreError {
    fn from(e: RmtError) -> Self {
        CoreError::Rmt(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        assert!(CoreError::UnknownModule { module_id: 9 }
            .to_string()
            .contains('9'));
        assert!(CoreError::NoFreeModuleSlot { capacity: 32 }
            .to_string()
            .contains("32"));
        let e = CoreError::InsufficientResource {
            resource: "match entries, stage 1".into(),
            requested: 20,
            available: 4,
        };
        assert!(e.to_string().contains("stage 1"));
        assert!(e.to_string().contains("20"));
        let rmt: CoreError = RmtError::TableFull { table: "CAM" }.into();
        assert!(rmt.to_string().contains("CAM"));
        assert!(CoreError::CheckFailed("loops".into())
            .to_string()
            .contains("loops"));
    }
}
