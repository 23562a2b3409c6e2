//! The global design registry: name → capabilities.

use std::collections::BTreeMap;
use std::sync::{OnceLock, RwLock};

use crate::config::SqDesign;
use crate::policy::DesignCaps;

/// A failure registering a design.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegistryError {
    /// A design with this name is already registered.
    Duplicate(String),
}

impl std::fmt::Display for RegistryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegistryError::Duplicate(name) => {
                write!(f, "design `{name}` is already registered")
            }
        }
    }
}

impl std::error::Error for RegistryError {}

/// The open roster of store-queue designs.
///
/// Every [`SqDesign`] name resolves here to a [`DesignCaps`] descriptor.
/// The one [`DesignRegistry::global`] instance is pre-populated with the
/// paper's seven builtin designs plus the `indexed-5-fwd+dly` extension
/// (all registered through the same public [`DesignRegistry::register`]
/// any caller can use), and accepts new capability combinations at any
/// time.
pub struct DesignRegistry {
    inner: RwLock<Inner>,
}

#[derive(Default)]
struct Inner {
    caps: BTreeMap<&'static str, DesignCaps>,
    /// Registration order, for stable `names()` listings.
    order: Vec<&'static str>,
}

impl DesignRegistry {
    /// The process-wide registry every [`SqDesign`] resolves through,
    /// pre-populated with the builtin designs.
    pub fn global() -> &'static DesignRegistry {
        static GLOBAL: OnceLock<DesignRegistry> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            let registry = DesignRegistry {
                inner: RwLock::new(Inner::default()),
            };
            for (name, caps) in BUILTIN_DESIGNS {
                registry
                    .register(name, caps)
                    .expect("builtin design names are unique");
            }
            // The first design the closed enum could not express: the
            // paper's indexed scheme at a 5-cycle SQ — added through the
            // exact same public API a downstream crate would use.
            registry
                .register("indexed-5-fwd+dly", DesignCaps::indexed(5).with_delay())
                .expect("extension design name is unique");
            registry
        })
    }

    /// Registers the capability combination `caps` as a design named
    /// `name`. Returns the (copyable) [`SqDesign`] handle naming it.
    ///
    /// # Errors
    ///
    /// [`RegistryError::Duplicate`] if the name is taken.
    pub fn register(&self, name: &str, caps: DesignCaps) -> Result<SqDesign, RegistryError> {
        let mut inner = self.inner.write().expect("registry lock poisoned");
        if inner.caps.contains_key(name) {
            return Err(RegistryError::Duplicate(name.to_string()));
        }
        // Design names are interned so `SqDesign` stays `Copy`; the
        // registry is append-only and small, so the leak is bounded.
        let interned: &'static str = Box::leak(name.to_owned().into_boxed_str());
        inner.caps.insert(interned, caps);
        inner.order.push(interned);
        Ok(SqDesign::from_static(interned))
    }

    /// Resolves a design name.
    #[must_use]
    pub fn lookup(&self, name: &str) -> Option<SqDesign> {
        let inner = self.inner.read().expect("registry lock poisoned");
        inner
            .caps
            .get_key_value(name)
            .map(|(&interned, _)| SqDesign::from_static(interned))
    }

    /// The capabilities registered for `design`.
    #[must_use]
    pub fn caps(&self, design: SqDesign) -> Option<DesignCaps> {
        let inner = self.inner.read().expect("registry lock poisoned");
        inner.caps.get(design.name()).copied()
    }

    /// All registered design names, in registration order (builtins
    /// first).
    #[must_use]
    pub fn names(&self) -> Vec<&'static str> {
        let inner = self.inner.read().expect("registry lock poisoned");
        inner.order.clone()
    }
}

impl std::fmt::Debug for DesignRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DesignRegistry")
            .field("designs", &self.names())
            .finish()
    }
}

/// The paper's seven designs, in Figure 4's left-to-right order.
const BUILTIN_DESIGNS: [(&str, DesignCaps); 7] = [
    ("ideal-oracle", DesignCaps::associative(3).with_oracle()),
    (
        "associative-3-storesets",
        DesignCaps::associative(3).with_original_store_sets(),
    ),
    ("associative-3", DesignCaps::associative(3)),
    ("associative-5-replay", DesignCaps::associative(5)),
    (
        "associative-5-fwdpred",
        DesignCaps::associative(5).with_fwd_latency_pred(),
    ),
    ("indexed-3-fwd", DesignCaps::indexed(3)),
    ("indexed-3-fwd+dly", DesignCaps::indexed(3).with_delay()),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_registry_knows_all_builtins_plus_the_extension() {
        let names = DesignRegistry::global().names();
        for (name, _) in BUILTIN_DESIGNS {
            assert!(names.contains(&name), "missing builtin `{name}`");
        }
        assert!(names.contains(&"indexed-5-fwd+dly"));
    }

    #[test]
    fn extension_design_caps_are_the_indexed_scheme_at_five_cycles() {
        let d = DesignRegistry::global()
            .lookup("indexed-5-fwd+dly")
            .expect("extension registered");
        let caps = d.caps();
        assert!(caps.indexed);
        assert!(caps.delay);
        assert_eq!(caps.sq_latency, 5);
        assert!(!caps.fwd_latency_pred);
    }

    #[test]
    fn duplicate_registration_is_rejected() {
        let r = DesignRegistry::global();
        let caps = DesignCaps::associative(3);
        r.register("registry-test-dup", caps).unwrap();
        assert_eq!(
            r.register("registry-test-dup", caps).unwrap_err(),
            RegistryError::Duplicate("registry-test-dup".to_string())
        );
        // A builtin name is taken too.
        assert_eq!(
            r.register("associative-3", caps).unwrap_err(),
            RegistryError::Duplicate("associative-3".to_string())
        );
    }

    #[test]
    fn registered_policies_report_their_caps() {
        use sqip_isa::{trace_program, ProgramBuilder, Reg};
        use sqip_types::DataSize;

        let caps = DesignCaps::indexed(4).with_delay();
        let d = DesignRegistry::global()
            .register("registry-test-idx-4", caps)
            .unwrap();
        assert_eq!(DesignRegistry::global().caps(d), Some(caps));
        assert_eq!(d.caps(), caps);
        assert_eq!(
            DesignRegistry::global().lookup("registry-test-idx-4"),
            Some(d)
        );

        // A processor over the new design runs to completion.
        let mut b = ProgramBuilder::new();
        let (ctr, v, t) = (Reg::new(1), Reg::new(2), Reg::new(3));
        b.load_imm(ctr, 100);
        b.load_imm(v, 7);
        let top = b.label("top");
        b.store(DataSize::Quad, v, Reg::ZERO, 0x100);
        b.load(DataSize::Quad, t, Reg::ZERO, 0x100);
        b.add_imm(ctr, ctr, -1);
        b.branch_nz(ctr, top);
        b.halt();
        let trace = trace_program(&b.build().unwrap(), 10_000).unwrap();
        let stats = crate::Processor::new(crate::SimConfig::with_design(d), &trace).run();
        assert_eq!(stats.committed, trace.len() as u64);
        assert!(stats.loads_forwarded > 0, "the indexed SQ forwards");
    }
}
