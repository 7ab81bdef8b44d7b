//! The scenario-file JSON form (`DESIGN.md` §Scenario files).
//!
//! Each tagged kind ([`TopologySpec`], [`TrafficSpec`], [`StopCondition`],
//! [`PartitionRule`], [`FaultSpec`]) is one `tagged!` table: variant,
//! `"kind"` tag, fields in document order. Emit, parse, the tag list and
//! `name()` are generated from it, with no `_` arm, so a variant missing
//! from its table does not compile. The plain structs are `record!` tables,
//! and each Rust type has one [`Field`] impl: serde's job, offline.

use super::{
    parse_cc, CcOverrides, FaultSpec, ForegroundSpec, LinkSpec, PartitionRule, ProbeSpec, Scenario,
    StopCondition, TopologySpec, TrafficSpec, Workload,
};
use crate::calibration::{set_from_json, set_to_json};
use crate::json::{num_u64, Json, EXACT_INT_LIMIT};
use fncc_cc::CcKind;
use fncc_fluid::CalibrationSet;

/// The key that names a tagged object's variant.
const KIND: &str = "kind";

/// A value with one JSON form in a scenario document.
pub(super) trait Field: Sized {
    /// The JSON form.
    fn emit(&self) -> Json;
    /// Read `v`, the value of field `key`. A wrong type or range is an
    /// error that names `key`.
    fn parse(v: &Json, key: &str) -> Result<Self, String>;
}

/// The tag table of a tagged kind.
pub(super) trait Tagged {
    /// Every `"kind"` tag, in table order.
    const TAGS: &'static [&'static str];
    /// This value's tag.
    fn tag(&self) -> &'static str;
}

/// Required field `key` of object `o` (absent reads as `null`, which no
/// type accepts, so both give the same "missing or non-…" error).
fn req<T: Field>(o: &Json, key: &str) -> Result<T, String> {
    T::parse(o.get(key).unwrap_or(&Json::Null), key)
}

fn object(v: &Json, key: &str) -> Result<(), String> {
    match v {
        Json::Obj(_) => Ok(()),
        _ => Err(format!("missing or non-object field '{key}'")),
    }
}

/// Leaf types: `$what` names the expected JSON type in errors.
macro_rules! scalar {
    ($($ty:ty, $what:literal, |$v:ident| $read:expr, |$x:ident| $emit:expr;)*) => {$(
        impl Field for $ty {
            fn emit(&self) -> Json {
                let $x = self;
                $emit
            }
            fn parse($v: &Json, key: &str) -> Result<Self, String> {
                $read.ok_or_else(|| format!(concat!("missing or non-", $what, " field '{}'"), key))
            }
        }
    )*};
}

scalar! {
    u8, "u8", |v| v.as_u64().and_then(|x| u8::try_from(x).ok()), |x| Json::Num(*x as f64);
    u32, "u32", |v| v.as_u64().and_then(|x| u32::try_from(x).ok()), |x| Json::Num(*x as f64);
    f64, "numeric", |v| v.as_f64(), |x| Json::Num(*x);
    bool, "boolean", |v| v.as_bool(), |x| Json::Bool(*x);
    String, "string", |v| v.as_str().map(str::to_string), |x| Json::Str(x.clone());
    Workload, "trace-name", |v| v.as_str().and_then(Workload::parse), |x| Json::Str(x.name().into());
    CcKind, "scheme-name", |v| v.as_str().and_then(parse_cc), |x| Json::Str(x.name().into());
}

/// A number at or above 2^53 may already be rounded to a neighbouring
/// integer, so only the decimal-string form can carry it.
impl Field for u64 {
    fn emit(&self) -> Json {
        num_u64(*self)
    }
    fn parse(v: &Json, key: &str) -> Result<Self, String> {
        match v {
            Json::Num(x) if x.fract() == 0.0 && *x >= EXACT_INT_LIMIT as f64 => Err(format!(
                "integer field '{key}' is at or above 2^53, past what a JSON number holds \
                 exactly: write it as a decimal string, \"{key}\": \"<digits>\""
            )),
            _ => v
                .as_u64()
                .ok_or_else(|| format!("missing or non-integer field '{key}'")),
        }
    }
}

impl<T: Field> Field for Vec<T> {
    fn emit(&self) -> Json {
        Json::Arr(self.iter().map(T::emit).collect())
    }
    fn parse(v: &Json, key: &str) -> Result<Self, String> {
        let items = v
            .as_arr()
            .ok_or_else(|| format!("missing or non-array field '{key}'"))?;
        items.iter().map(|x| T::parse(x, key)).collect()
    }
}

/// Present means `Some`; records leave `None` out of the document.
impl<T: Field> Field for Option<T> {
    fn emit(&self) -> Json {
        self.as_ref().map_or(Json::Null, T::emit)
    }
    fn parse(v: &Json, key: &str) -> Result<Self, String> {
        T::parse(v, key).map(Some)
    }
}

/// The `schemes` map of the `fncc.calibration/v1` artifact, with that
/// module's own diagnostics.
impl Field for CalibrationSet {
    fn emit(&self) -> Json {
        set_to_json(self)
    }
    fn parse(v: &Json, _key: &str) -> Result<Self, String> {
        set_from_json(v)
    }
}

/// A struct as a JSON object. Fields are listed in document order, each
/// `req` (must be present) or `opt` (absent keeps `$default`'s value); an
/// `unless skip` clause leaves the field out of the document when
/// `skip(&value)` holds.
macro_rules! record {
    ($ty:ident = $default:expr; $($mode:ident $f:ident $(unless $skip:path)?),* $(,)?) => {
        impl Field for $ty {
            fn emit(&self) -> Json {
                let mut out = Vec::new();
                $(if true $(&& !$skip(&self.$f))? {
                    out.push((stringify!($f).to_string(), self.$f.emit()));
                })*
                Json::Obj(out)
            }
            fn parse(v: &Json, key: &str) -> Result<Self, String> {
                object(v, key)?;
                let mut out = $default;
                $(record!(@$mode out, v, $f);)*
                Ok(out)
            }
        }
    };
    (@req $out:ident, $v:ident, $f:ident) => {
        $out.$f = req($v, stringify!($f))?;
    };
    (@opt $out:ident, $v:ident, $f:ident) => {
        if let Some(x) = $v.get(stringify!($f)) {
            $out.$f = Field::parse(x, stringify!($f))?;
        }
    };
}

/// A tagged enum as a JSON object: `"kind"` names the variant and the
/// variant's fields follow in document order, all required. `$what` names
/// the kind in "unknown … kind" errors; `, pub fn $name` also exposes
/// the tag as a public method.
macro_rules! tagged {
    ($ty:ident $what:literal $(, pub fn $name:ident)? {
        $($variant:ident $tag:literal { $($f:ident),* }),* $(,)?
    }) => {
        impl Tagged for $ty {
            const TAGS: &'static [&'static str] = &[$($tag),*];
            fn tag(&self) -> &'static str {
                match self {
                    $($ty::$variant { .. } => $tag,)*
                }
            }
        }
        $(impl $ty {
            /// Short display name: the document's `"kind"` tag.
            pub fn $name(&self) -> &'static str {
                self.tag()
            }
        })?
        impl Field for $ty {
            fn emit(&self) -> Json {
                match self {
                    $($ty::$variant { $($f),* } => Json::Obj(vec![
                        (KIND.to_string(), Json::Str($tag.into())),
                        $((stringify!($f).to_string(), $f.emit()),)*
                    ]),)*
                }
            }
            fn parse(v: &Json, key: &str) -> Result<Self, String> {
                object(v, key)?;
                match req::<String>(v, KIND)?.as_str() {
                    $($tag => Ok($ty::$variant { $($f: req(v, stringify!($f))?),* }),)*
                    other => Err(format!(concat!("unknown ", $what, " kind '{}'"), other)),
                }
            }
        }
    };
}

tagged! { TopologySpec "topology", pub fn name {
    Dumbbell "dumbbell" { senders, switches },
    Line "line" { switches, attach },
    Star "star" { hosts },
    FatTree "fat_tree" { k },
    LeafSpine "leaf_spine" { leaves, spines, hosts_per_leaf },
}}

tagged! { TrafficSpec "traffic", pub fn name {
    Elephants "elephants" { join_at_us },
    Staircase "staircase" { interval_us },
    Incast "incast" { receiver, fan_in, size, waves, gap_us },
    Poisson "poisson" { workload, load, flows },
    MiceBehindElephants "mice_behind_elephants" {
        elephants, elephant_size, mice, mouse_size, warmup_us, gap_us
    },
}}

tagged! { StopCondition "stop" {
    Horizon "horizon" { us },
    Drain "drain" { cap_ms },
}}

tagged! { PartitionRule "partition rule" {
    SizeBelow "size_below" { bytes },
    ToHosts "to_hosts" { hosts },
    FlowIds "flow_ids" { ids },
    FirstFlows "first_flows" { n },
}}

tagged! { FaultSpec "fault" {
    LinkDown "link_down" { switch, port, at_us },
    LinkUp "link_up" { switch, port, at_us },
    LinkDegrade "link_degrade" { switch, port, from_us, to_us, rate_factor, delay_factor },
    RandomLoss "random_loss" { switch, port, from_us, to_us, probability },
    StuckPort "stuck_port" { switch, port, at_us, duration_us },
}}

record!(LinkSpec = LinkSpec::default(); req gbps, req prop_ns);

record!(CcOverrides = CcOverrides::default();
    opt disable_lhcs, opt int_refresh_us, opt calibration unless Option::is_none);

record!(ProbeSpec = ProbeSpec::default();
    opt sample_ns, opt congestion_point, opt flow_rates, opt cc_rates, opt trace);

record!(ForegroundSpec = ForegroundSpec { rules: Vec::new() }; req rules);

// The four required fields' defaults are placeholders every document
// overwrites; the optional ones default as in `Scenario::new`.
record!(Scenario = Scenario::new(
        String::new(),
        TopologySpec::Star { hosts: 0 },
        TrafficSpec::Elephants { join_at_us: 0 },
        CcKind::Fncc,
    );
    req name, req topology, opt link, req traffic, req cc, opt overrides, opt probes,
    opt foreground unless Option::is_none, opt faults unless Vec::is_empty, opt stop, opt seeds,
    opt threads unless is_zero);

fn is_zero(threads: &u32) -> bool {
    *threads == 0
}

impl Scenario {
    /// Serialize to the scenario-file JSON format.
    pub fn to_json(&self) -> String {
        self.emit().to_string_pretty()
    }

    /// Parse the scenario-file JSON format and [`Scenario::validate`] the
    /// result. `link`, `overrides`, `probes`, `foreground`, `faults`,
    /// `stop`, `seeds` and `threads` are optional and default as in
    /// [`Scenario::new`].
    pub fn from_json(text: &str) -> Result<Scenario, String> {
        let sc = Scenario::parse(&Json::parse(text)?, "scenario")?;
        sc.validate()?;
        Ok(sc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// One valid scenario per variant of every tagged kind;
    /// `every_tag_has_a_sample` holds this list to the tables.
    fn samples() -> Vec<Scenario> {
        let base = |topology, traffic| Scenario::new("sample", topology, traffic, CcKind::Fncc);
        let faults = vec![
            FaultSpec::LinkDown {
                switch: 0,
                port: 2,
                at_us: 50,
            },
            FaultSpec::LinkUp {
                switch: 0,
                port: 2,
                at_us: 400,
            },
            FaultSpec::LinkDegrade {
                switch: 1,
                port: 3,
                from_us: 10,
                to_us: 90,
                rate_factor: 0.95,
                delay_factor: 4.0,
            },
            FaultSpec::RandomLoss {
                switch: 2,
                port: 2,
                from_us: 0,
                to_us: 200,
                probability: 0.005,
            },
            FaultSpec::StuckPort {
                switch: 0,
                port: 0,
                at_us: 20,
                duration_us: 30,
            },
        ];
        vec![
            Scenario {
                foreground: Some(ForegroundSpec {
                    rules: vec![PartitionRule::SizeBelow { bytes: 1_000_000 }],
                }),
                ..base(
                    TopologySpec::Dumbbell {
                        senders: 4,
                        switches: 3,
                    },
                    TrafficSpec::MiceBehindElephants {
                        elephants: 2,
                        // Past 2^53: the decimal-string form.
                        elephant_size: (1 << 53) + 1,
                        mice: 16,
                        mouse_size: 10_000,
                        warmup_us: 60,
                        gap_us: 25,
                    },
                )
            },
            Scenario {
                stop: StopCondition::Horizon { us: 1000 },
                probes: ProbeSpec::micro(1000, 2),
                ..base(
                    TopologySpec::Line {
                        switches: 3,
                        attach: vec![0, 2],
                    },
                    TrafficSpec::Elephants { join_at_us: 300 },
                )
            },
            Scenario {
                cc: CcKind::Hpcc,
                overrides: CcOverrides {
                    disable_lhcs: true,
                    int_refresh_us: 0,
                    calibration: Some(CalibrationSet::paper()),
                },
                seeds: vec![1, 2, 3],
                ..base(
                    TopologySpec::Star { hosts: 4 },
                    TrafficSpec::Staircase { interval_us: 100 },
                )
            },
            Scenario {
                link: LinkSpec {
                    gbps: 400,
                    prop_ns: 1000,
                },
                faults,
                threads: 4,
                ..base(
                    TopologySpec::FatTree { k: 4 },
                    TrafficSpec::Incast {
                        receiver: 0,
                        fan_in: 8,
                        size: 200_000,
                        waves: 2,
                        gap_us: 100,
                    },
                )
            },
            Scenario {
                foreground: Some(ForegroundSpec {
                    rules: vec![
                        PartitionRule::ToHosts {
                            hosts: vec![0, 1, 2, 3],
                        },
                        PartitionRule::FlowIds { ids: vec![0, 3] },
                        PartitionRule::FirstFlows { n: 2 },
                    ],
                }),
                ..base(
                    TopologySpec::LeafSpine {
                        leaves: 4,
                        spines: 2,
                        hosts_per_leaf: 8,
                    },
                    TrafficSpec::Poisson {
                        workload: Workload::FbHadoop,
                        load: 0.4,
                        flows: 64,
                    },
                )
            },
        ]
    }

    fn tags<'a, T: Tagged + 'a>(values: impl IntoIterator<Item = &'a T>) -> BTreeSet<&'static str> {
        values.into_iter().map(T::tag).collect()
    }

    fn table<T: Tagged>() -> BTreeSet<&'static str> {
        T::TAGS.iter().copied().collect()
    }

    #[test]
    fn every_tag_has_a_sample() {
        let s = samples();
        assert_eq!(
            tags(s.iter().map(|sc| &sc.topology)),
            table::<TopologySpec>()
        );
        assert_eq!(tags(s.iter().map(|sc| &sc.traffic)), table::<TrafficSpec>());
        assert_eq!(tags(s.iter().map(|sc| &sc.stop)), table::<StopCondition>());
        let rules = s.iter().filter_map(|sc| sc.foreground.as_ref());
        assert_eq!(
            tags(rules.flat_map(|fg| &fg.rules)),
            table::<PartitionRule>()
        );
        assert_eq!(
            tags(s.iter().flat_map(|sc| &sc.faults)),
            table::<FaultSpec>()
        );
    }

    /// `fncc_net` names the fault kinds for its own messages; the two
    /// vocabularies must agree.
    #[test]
    fn fault_tags_match_kind_name() {
        for f in samples().iter().flat_map(|sc| &sc.faults) {
            assert_eq!(f.tag(), f.kind_name());
        }
    }

    #[test]
    fn samples_are_parse_emit_fixpoints() {
        for sc in samples() {
            let text = sc.to_json();
            let parsed = Scenario::from_json(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
            assert_eq!(parsed, sc);
            assert_eq!(parsed.to_json(), text);
        }
    }

    /// Every shipped document re-emits to a fixpoint: emit(parse(emit(x)))
    /// equals emit(x). (The codec alone: running `validate` on the
    /// fleet-scale files would generate 10⁶ flows.)
    #[test]
    fn shipped_documents_are_emit_fixpoints() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let mut checked = 0;
        for dir in ["scenarios", "perfbench/workloads"] {
            for entry in std::fs::read_dir(root.join(dir)).unwrap() {
                let path = entry.unwrap().path();
                if path.extension().is_none_or(|e| e != "json") {
                    continue;
                }
                let decode = |text: &str| {
                    Scenario::parse(&Json::parse(text).unwrap(), "scenario")
                        .unwrap_or_else(|e| panic!("{}: {e}", path.display()))
                };
                let first = decode(&std::fs::read_to_string(&path).unwrap()).to_json();
                let second = decode(&first);
                assert_eq!(second.to_json(), first, "{}", path.display());
                checked += 1;
            }
        }
        assert!(checked >= 13, "only {checked} documents found");
    }

    #[derive(Clone)]
    enum Step {
        Key(String),
        Ix(usize),
    }

    /// The path to every object field under `v`, and whether that field
    /// sits in a tagged object.
    fn fields(v: &Json, at: &mut Vec<Step>, out: &mut Vec<(Vec<Step>, bool)>) {
        match v {
            Json::Obj(fs) => {
                let tagged = v.get(KIND).is_some();
                for (k, x) in fs {
                    at.push(Step::Key(k.clone()));
                    out.push((at.clone(), tagged));
                    fields(x, at, out);
                    at.pop();
                }
            }
            Json::Arr(items) => {
                for (i, x) in items.iter().enumerate() {
                    at.push(Step::Ix(i));
                    fields(x, at, out);
                    at.pop();
                }
            }
            _ => {}
        }
    }

    fn remove(v: &mut Json, path: &[Step]) {
        match (v, path) {
            (Json::Obj(fs), [Step::Key(k)]) => fs.retain(|(f, _)| f != k),
            (Json::Obj(fs), [Step::Key(k), rest @ ..]) => {
                remove(&mut fs.iter_mut().find(|(f, _)| f == k).unwrap().1, rest)
            }
            (Json::Arr(items), [Step::Ix(i), rest @ ..]) => remove(&mut items[*i], rest),
            _ => unreachable!(),
        }
    }

    /// Deleting a required field from any sample is an error (and never a
    /// panic); deleting an optional one still parses. Required: every
    /// field of a tagged object, `name`/`topology`/`traffic`/`cc`, the
    /// fields of `link`, `foreground.rules`, and everything inside
    /// `overrides.calibration`.
    #[test]
    fn deleting_a_required_field_is_an_error() {
        for sc in samples() {
            let doc = sc.emit();
            let mut paths = Vec::new();
            fields(&doc, &mut Vec::new(), &mut paths);
            for (path, in_tagged) in paths {
                let keys: Vec<&str> = path
                    .iter()
                    .filter_map(|s| match s {
                        Step::Key(k) => Some(k.as_str()),
                        Step::Ix(_) => None,
                    })
                    .collect();
                let required = in_tagged
                    || matches!(
                        keys[..],
                        ["name" | "topology" | "traffic" | "cc"]
                            | ["link", _]
                            | ["foreground", "rules"]
                            | ["overrides", "calibration", _, ..]
                    );
                let mut cut = doc.clone();
                remove(&mut cut, &path);
                let got = Scenario::from_json(&cut.to_string_compact());
                assert_eq!(got.is_err(), required, "deleting {keys:?}: {got:?}");
            }
        }
    }

    #[test]
    fn errors_name_the_field() {
        let doc = |topology: &str| {
            Scenario::from_json(&format!(
                r#"{{"name":"x","topology":{topology},
                    "traffic":{{"kind":"elephants","join_at_us":1}},"cc":"fncc"}}"#
            ))
            .unwrap_err()
        };
        assert_eq!(
            doc(r#"{"kind":"fat_tree","k":"four"}"#),
            "missing or non-u32 field 'k'"
        );
        assert_eq!(
            doc(r#"{"kind":"fat_tree"}"#),
            "missing or non-u32 field 'k'"
        );
        assert_eq!(doc("4"), "missing or non-object field 'topology'");
        assert_eq!(
            doc(r#"{"kind":"moebius"}"#),
            "unknown topology kind 'moebius'"
        );
        assert_eq!(
            doc(r#"{"kind":"line","switches":3,"attach":[0,-1]}"#),
            "missing or non-u32 field 'attach'"
        );
        // Integers from 2^53 on: a number is refused by name, however near
        // the next exact float, and the decimal-string form is read.
        let above_2p53 = |link: &str, size: &str| {
            Scenario::from_json(&format!(
                r#"{{"name":"x","topology":{{"kind":"star","hosts":4}},"link":{link},
                    "traffic":{{"kind":"incast","receiver":0,"fan_in":2,"size":{size},
                    "waves":1,"gap_us":10}},"cc":"fncc"}}"#
            ))
        };
        let hint = |key: &str| {
            format!(
                "integer field '{key}' is at or above 2^53, past what a JSON number holds \
                 exactly: write it as a decimal string, \"{key}\": \"<digits>\""
            )
        };
        let link = r#"{"gbps":100,"prop_ns":1500}"#;
        let big = r#"{"gbps":100,"prop_ns":18446744073709551}"#;
        assert_eq!(above_2p53(big, "10000").unwrap_err(), hint("prop_ns"));
        assert_eq!(
            above_2p53(link, "9007199254740993").unwrap_err(),
            hint("size")
        );
        let big = r#"{"gbps":100,"prop_ns":"18446744073709551"}"#;
        let sc = above_2p53(big, r#""9007199254740993""#).unwrap();
        assert_eq!(sc.link.prop_ns, 18_446_744_073_709_551);
        assert!(matches!(
            sc.traffic,
            TrafficSpec::Incast {
                size: 9_007_199_254_740_993,
                ..
            }
        ));
    }
}
