//! The versioned JSON wire schema for experiments.
//!
//! An [`ExperimentSpec`] is the declarative, serializable face of
//! [`Experiment`]: workloads and designs by registry *name*, and variants
//! as named sets of documented numeric knobs instead of opaque closures.
//! It is what `sqipd` accepts over the wire, what batch files hold on
//! disk, and the one place the JSON surface is versioned
//! ([`SPEC_VERSION`]).
//!
//! Parsing is strict — unknown fields, unknown knobs, and unsupported
//! versions are errors, never silently ignored — because a spec travels
//! between processes that may disagree about the schema, and a dropped
//! field would silently change what gets simulated.
//!
//! ```
//! use sqip::ExperimentSpec;
//!
//! let spec = ExperimentSpec::from_json(
//!     r#"{
//!         "version": 1,
//!         "workloads": ["mix:0xfeed:20k", "gzip"],
//!         "designs": ["ideal-oracle", "indexed-3-fwd+dly"],
//!         "variants": [{"name": "small-fsp", "set": {"fsp_entries": 512}}]
//!     }"#,
//! )?;
//! let experiment = spec.to_experiment()?;
//! assert_eq!(experiment.cells()?.len(), 2 * 2 * 1);
//! # Ok::<(), sqip::SqipError>(())
//! ```

use serde::{Deserialize, Serialize, Value};
use sqip_core::{SimConfig, SqDesign};
use sqip_workloads::Workload;

use crate::error::SqipError;
use crate::experiment::Experiment;

/// The wire-schema version this build speaks.
///
/// A spec with any other `version` is rejected by
/// [`ExperimentSpec::to_experiment`] — bump this when the schema changes
/// shape incompatibly.
pub const SPEC_VERSION: u32 = 1;

/// The configuration knobs a [`VariantSpec`] may set, with the
/// [`SimConfig`] field each maps to.
///
/// All knobs take unsigned integer values. `sq_size` also sets
/// `ddp.max_distance` (the simulator requires the two to be equal: delay
/// distances are stored in ⌈log2(SQ size)⌉ bits).
///
/// [`Experiment::cells`] validates every cell's configuration with
/// [`SimConfig::try_validate`], so a value outside these ranges is
/// refused before anything runs:
///
/// * `rob_size`, `iq_size`, `lq_size`, `sq_size`:
///   1..=[`SimConfig::MAX_WINDOW_ENTRIES`] (65,536);
/// * `fetch_width`, `rename_width`, `commit_width`, `reexec_ports`:
///   1..=[`SimConfig::MAX_WIDTH`] (64);
/// * `front_latency`, `issue_to_exec`, `post_exec_depth`:
///   0..=[`SimConfig::MAX_LATENCY`] (1,024 cycles);
/// * `fsp_entries`, `fsp_ways`, `ddp_entries`: at most
///   [`SimConfig::MAX_TABLE_ENTRIES`] (65,536) entries, at least one way,
///   and a power-of-two set count (entries / ways);
/// * `sat_entries`, `ssbf_entries`, `spct_entries`: a power of two of at
///   most [`SimConfig::MAX_TABLE_ENTRIES`];
/// * `ssn_bits`: 8..=[`SimConfig::MAX_SSN_BITS`] (64).
pub const KNOBS: &[(&str, &str)] = &[
    ("rob_size", "reorder-buffer entries"),
    ("iq_size", "issue-queue entries"),
    ("lq_size", "load-queue entries"),
    (
        "sq_size",
        "store-queue entries (also sets ddp.max_distance)",
    ),
    ("fetch_width", "instructions fetched per cycle"),
    ("rename_width", "instructions renamed per cycle"),
    ("commit_width", "instructions committed per cycle"),
    ("reexec_ports", "re-execution data-cache ports"),
    ("front_latency", "fetch-to-rename cycles"),
    ("issue_to_exec", "issue-selection-to-execute cycles"),
    ("post_exec_depth", "completion-to-commit pipeline depth"),
    ("fsp_entries", "forwarding-store-predictor entries"),
    ("fsp_ways", "forwarding-store-predictor associativity"),
    ("ddp_entries", "delay-distance-predictor entries"),
    ("sat_entries", "store-alias-table entries"),
    ("ssbf_entries", "store-sequence Bloom-filter entries"),
    ("spct_entries", "store-PC-table entries"),
    ("ssn_bits", "hardware store-sequence-number width in bits"),
];

/// Applies one knob to a configuration. Errors name the unknown knob and
/// list the known ones.
fn apply_knob(cfg: &mut SimConfig, knob: &str, value: u64) -> Result<(), String> {
    let val = usize::try_from(value).map_err(|_| format!("knob `{knob}`: {value} out of range"))?;
    match knob {
        "rob_size" => cfg.rob_size = val,
        "iq_size" => cfg.iq_size = val,
        "lq_size" => cfg.lq_size = val,
        "sq_size" => {
            cfg.sq_size = val;
            cfg.ddp.max_distance = value;
        }
        "fetch_width" => cfg.fetch_width = val,
        "rename_width" => cfg.rename_width = val,
        "commit_width" => cfg.commit_width = val,
        "reexec_ports" => cfg.reexec_ports = val,
        "front_latency" => cfg.front_latency = value,
        "issue_to_exec" => cfg.issue_to_exec = value,
        "post_exec_depth" => cfg.post_exec_depth = value,
        "fsp_entries" => cfg.fsp.entries = val,
        "fsp_ways" => cfg.fsp.ways = val,
        "ddp_entries" => cfg.ddp.entries = val,
        "sat_entries" => cfg.sat_entries = val,
        "ssbf_entries" => cfg.ssbf_entries = val,
        "spct_entries" => cfg.spct_entries = val,
        "ssn_bits" => {
            cfg.ssn_bits =
                u32::try_from(value).map_err(|_| format!("knob `{knob}`: {value} out of range"))?;
        }
        _ => {
            let known: Vec<&str> = KNOBS.iter().map(|(name, _)| *name).collect();
            return Err(format!(
                "unknown knob `{knob}` (known: {})",
                known.join(", ")
            ));
        }
    }
    Ok(())
}

/// One named configuration variant: the declarative form of
/// [`Experiment::vary`], as a set of [`KNOBS`] assignments applied on top
/// of the design's base configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VariantSpec {
    /// The variant label (the `variant` column of result rows).
    pub name: String,
    /// `(knob, value)` assignments, applied in order.
    pub set: Vec<(String, u64)>,
}

impl Serialize for VariantSpec {
    fn serialize(&self) -> Value {
        let set = self
            .set
            .iter()
            .map(|(k, v)| (k.clone(), Value::U64(*v)))
            .collect();
        Value::Object(vec![
            ("name".to_string(), Value::Str(self.name.clone())),
            ("set".to_string(), Value::Object(set)),
        ])
    }
}

impl Deserialize for VariantSpec {
    fn deserialize(value: &Value) -> Result<Self, serde::Error> {
        let Value::Object(fields) = value else {
            return Err(serde::Error::custom("variant: expected an object"));
        };
        for (key, _) in fields {
            if key != "name" && key != "set" {
                return Err(serde::Error::custom(format!(
                    "unknown field `{key}` in variant (known: name, set)"
                )));
            }
        }
        let name: String = serde::field(value, "name")?;
        let set = match value.get("set") {
            None => Vec::new(),
            Some(Value::Object(entries)) => entries
                .iter()
                .map(|(k, v)| u64::deserialize(v).map(|v| (k.clone(), v)))
                .collect::<Result<_, _>>()
                .map_err(|e| serde::Error::custom(format!("variant `{name}`: {e}")))?,
            Some(_) => {
                return Err(serde::Error::custom(format!(
                    "variant `{name}`: `set` must be an object of knob: value pairs"
                )));
            }
        };
        Ok(VariantSpec { name, set })
    }
}

/// A complete, serializable experiment description: the declarative
/// counterpart of [`Experiment`] and the job payload `sqipd` accepts.
///
/// Workloads are registry names (Table 3 models, catalogue entries, or
/// `mix:`/`chase:`/`stride:` generator-grammar names); designs are
/// [`DesignRegistry`](sqip_core::DesignRegistry) names (including
/// designs registered at runtime); variants are declarative knob sets
/// ([`KNOBS`]). See the module docs for the JSON shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExperimentSpec {
    /// Schema version; must equal [`SPEC_VERSION`].
    pub version: u32,
    /// Workload names, resolved via [`Workload::from_registry`].
    pub workloads: Vec<String>,
    /// Design names, resolved via the design registry.
    pub designs: Vec<String>,
    /// Configuration variants; empty means the single implicit
    /// [`BASE_VARIANT`](crate::BASE_VARIANT).
    pub variants: Vec<VariantSpec>,
}

impl ExperimentSpec {
    /// A current-version spec over the given workload and design names,
    /// with no variants.
    pub fn new<W, D>(workloads: W, designs: D) -> ExperimentSpec
    where
        W: IntoIterator,
        W::Item: Into<String>,
        D: IntoIterator,
        D::Item: Into<String>,
    {
        ExperimentSpec {
            version: SPEC_VERSION,
            workloads: workloads.into_iter().map(Into::into).collect(),
            designs: designs.into_iter().map(Into::into).collect(),
            variants: Vec::new(),
        }
    }

    /// Adds a variant.
    #[must_use]
    pub fn variant(mut self, name: impl Into<String>, set: Vec<(String, u64)>) -> ExperimentSpec {
        self.variants.push(VariantSpec {
            name: name.into(),
            set,
        });
        self
    }

    /// Serializes to compact JSON (the canonical form: fields in schema
    /// order, `variants` always present — so
    /// `from_json(s).to_json() == s` for canonical input).
    #[must_use]
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("specs contain no floats")
    }

    /// Serializes to pretty-printed JSON.
    #[must_use]
    pub fn to_json_pretty(&self) -> String {
        serde_json::to_string_pretty(self).expect("specs contain no floats")
    }

    /// Parses a spec from JSON. Unknown fields are rejected; names and
    /// the version are *not* resolved here — that is
    /// [`ExperimentSpec::to_experiment`]'s job, so a parse error always
    /// means malformed JSON, not an unknown workload.
    ///
    /// # Errors
    ///
    /// [`SqipError::Parse`] on malformed JSON, a shape mismatch, or an
    /// unknown field.
    pub fn from_json(text: &str) -> Result<ExperimentSpec, SqipError> {
        Ok(serde_json::from_str(text)?)
    }

    /// Resolves every name against the live registries and builds the
    /// runnable [`Experiment`].
    ///
    /// # Errors
    ///
    /// [`SqipError::Config`] for an unsupported version, an empty axis,
    /// or an unknown knob; [`SqipError::UnknownWorkload`] /
    /// [`SqipError::UnknownDesign`] for names that resolve to nothing.
    pub fn to_experiment(&self) -> Result<Experiment, SqipError> {
        if self.version != SPEC_VERSION {
            return Err(SqipError::Config(format!(
                "unsupported spec version {} (this build speaks {SPEC_VERSION})",
                self.version
            )));
        }
        let mut experiment = Experiment::new();
        for name in &self.workloads {
            experiment = experiment.workload(Workload::from_registry(name)?);
        }
        for name in &self.designs {
            let design: SqDesign = name
                .parse()
                .map_err(|e| SqipError::UnknownDesign(format!("{e}")))?;
            experiment = experiment.design(design);
        }
        for variant in &self.variants {
            // Validate the knob set now, on a scratch configuration, so
            // unknown knobs surface as errors here instead of being
            // swallowed inside the variant closure (which cannot fail).
            let mut scratch = SimConfig::default();
            for (knob, value) in &variant.set {
                apply_knob(&mut scratch, knob, *value)
                    .map_err(|e| SqipError::Config(format!("variant `{}`: {e}", variant.name)))?;
            }
            let set = variant.set.clone();
            experiment = experiment.vary(variant.name.clone(), move |cfg| {
                for (knob, value) in &set {
                    // Pre-validated above; value-range checks depend only
                    // on the value, so this cannot fail here.
                    let _ = apply_knob(cfg, knob, *value);
                }
            });
        }
        Ok(experiment)
    }
}

impl Serialize for ExperimentSpec {
    fn serialize(&self) -> Value {
        Value::Object(vec![
            ("version".to_string(), Value::U64(u64::from(self.version))),
            ("workloads".to_string(), self.workloads.serialize()),
            ("designs".to_string(), self.designs.serialize()),
            ("variants".to_string(), self.variants.serialize()),
        ])
    }
}

impl Deserialize for ExperimentSpec {
    fn deserialize(value: &Value) -> Result<Self, serde::Error> {
        let Value::Object(fields) = value else {
            return Err(serde::Error::custom("experiment spec: expected an object"));
        };
        const KNOWN: [&str; 4] = ["version", "workloads", "designs", "variants"];
        for (key, _) in fields {
            if !KNOWN.contains(&key.as_str()) {
                return Err(serde::Error::custom(format!(
                    "unknown field `{key}` in experiment spec (known: {})",
                    KNOWN.join(", ")
                )));
            }
        }
        Ok(ExperimentSpec {
            version: serde::field(value, "version")?,
            workloads: serde::field(value, "workloads")?,
            designs: serde::field(value, "designs")?,
            variants: match value.get("variants") {
                None => Vec::new(),
                Some(v) => Vec::<VariantSpec>::deserialize(v)?,
            },
        })
    }
}
