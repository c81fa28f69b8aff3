//! First-class run configuration: the [`Scenario`].
//!
//! A [`Scenario`] is exactly the inputs that change a run's report — the
//! seed, the fidelity and the experiment params — as a value type with
//! three properties the campaign substrate needs:
//!
//! * **deterministic JSON round-trip** — [`Scenario::to_json`] emits a
//!   canonical form (fixed member order, key-sorted params) such that
//!   `encode(parse(encode(s))) == encode(s)` bit-identically, using the
//!   in-tree [`crate::json`] module;
//! * **a stable content hash** — [`Scenario::content_hash`] is an FNV-1a
//!   over a canonical byte encoding of every field, so equal scenarios
//!   hash equal across processes and builds (it keys the serve cache and
//!   names campaign checkpoint entries);
//! * **an ordered param map** — experiments read overridable knobs via
//!   `ctx.param_u64/param_f64/param_str` instead of hard-coding problem
//!   sizes behind the `quick` bool, so sweeps over e.g. the IMC array
//!   size or the SCF core count are expressible as data.
//!
//! The worker-thread count is deliberately *not* part of a scenario:
//! reports are bit-identical at any thread count, so it is an execution
//! resource of the [`crate::experiment::ExperimentCtx`] instead.
//!
//! Invariants enforced by every constructor and by [`Scenario::from_json`]:
//! numeric params are finite (NaN/inf would encode as JSON `null` and
//! break the round-trip), `-0.0` is normalised to `0.0` (they compare
//! equal but have different bit patterns, which would break `Eq`/`Hash`
//! consistency), and params are unique and key-sorted.

use crate::json::{Json, ToJson};

/// The fidelity axis of a run: the problem-size knob experiments consult.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fidelity {
    /// Reduced problem sizes, every claim shape preserved — the fidelity
    /// CI and the golden snapshots pin.
    Quick,
    /// Full problem sizes (the numbers recorded in `EXPERIMENTS.md`).
    Full,
}

impl Fidelity {
    /// Whether this is the reduced-size fidelity ([`Fidelity::Quick`]).
    pub fn is_quick(self) -> bool {
        matches!(self, Fidelity::Quick)
    }

    fn name(self) -> &'static str {
        match self {
            Fidelity::Quick => "quick",
            Fidelity::Full => "full",
        }
    }

    fn from_json_value(value: &Json) -> Result<Self, String> {
        match value.as_str() {
            Some("quick") => Ok(Fidelity::Quick),
            Some("full") => Ok(Fidelity::Full),
            _ => Err("fidelity must be \"quick\" or \"full\"".into()),
        }
    }
}

/// One overridable experiment knob: a finite number or a string.
///
/// Numbers are `f64` because that is what JSON numbers are — a split
/// integer/float representation could not round-trip through the canonical
/// encoding bit-identically. Integer-valued knobs validate integrality on
/// read ([`crate::experiment::ExperimentCtx::param_u64`]).
#[derive(Debug, Clone, PartialEq)]
pub enum ParamValue {
    /// A finite number (never NaN/inf, `-0.0` normalised to `0.0`).
    Num(f64),
    /// A string value (e.g. a named sparsity pattern).
    Str(String),
}

// Safe: constructors exclude NaN, the one PartialEq edge case.
impl Eq for ParamValue {}

impl ParamValue {
    /// Parses a CLI-style value: anything that parses as a finite number
    /// is a [`ParamValue::Num`]; everything else is a [`ParamValue::Str`].
    pub fn parse(raw: &str) -> Self {
        match raw.parse::<f64>() {
            Ok(v) if v.is_finite() => ParamValue::Num(normalize(v)),
            _ => ParamValue::Str(raw.to_string()),
        }
    }

    fn to_json_value(&self) -> Json {
        match self {
            ParamValue::Num(v) => Json::Num(*v),
            ParamValue::Str(s) => Json::Str(s.clone()),
        }
    }

    fn from_json_value(value: &Json) -> Result<Self, String> {
        match value {
            Json::Num(v) if v.is_finite() => Ok(ParamValue::Num(normalize(*v))),
            Json::Num(_) => Err("param numbers must be finite".into()),
            Json::Str(s) => Ok(ParamValue::Str(s.clone())),
            _ => Err("param values must be numbers or strings".into()),
        }
    }

    fn eat(&self, eat: &mut impl FnMut(&[u8])) {
        match self {
            ParamValue::Num(v) => {
                eat(&[0]);
                eat(&v.to_bits().to_le_bytes());
            }
            ParamValue::Str(s) => {
                eat(&[1]);
                eat(s.as_bytes());
                eat(&[0]);
            }
        }
    }
}

/// Collapses `-0.0` to `0.0` so equal values share one bit pattern.
fn normalize(v: f64) -> f64 {
    if v == 0.0 {
        0.0
    } else {
        v
    }
}

/// A complete, self-describing run configuration: everything that
/// influences an experiment's report, and nothing else.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Root seed of all experiment randomness.
    pub seed: u64,
    /// Problem-size fidelity.
    pub fidelity: Fidelity,
    /// Overridable experiment knobs, key-sorted and unique (the canonical
    /// order the encoding and hash depend on). Kept private so the
    /// invariant cannot be broken; mutate via [`Scenario::set_param`].
    params: Vec<(String, ParamValue)>,
}

// Safe: `ParamValue` excludes NaN, the one PartialEq edge case, so
// equality is a genuine equivalence relation.
impl Eq for Scenario {}

impl std::hash::Hash for Scenario {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        // Equal scenarios have equal content hashes by construction
        // (canonical field encoding), so this is `Eq`-consistent.
        state.write_u64(self.content_hash());
    }
}

impl Default for Scenario {
    /// The default scenario: default seed, quick fidelity, no params —
    /// exactly the configuration the golden snapshots pin.
    fn default() -> Self {
        Self::new(crate::rng::DEFAULT_SEED, Fidelity::Quick)
    }
}

impl Scenario {
    /// A scenario with no param overrides.
    pub fn new(seed: u64, fidelity: Fidelity) -> Self {
        Self {
            seed,
            fidelity,
            params: Vec::new(),
        }
    }

    /// Sets (or replaces) one param, keeping the map key-sorted.
    ///
    /// # Panics
    ///
    /// Panics on a non-finite numeric value — it could not round-trip
    /// through JSON.
    pub fn set_param(&mut self, key: &str, value: ParamValue) {
        let value = match value {
            ParamValue::Num(v) => {
                assert!(v.is_finite(), "param `{key}` must be finite, got {v}");
                ParamValue::Num(normalize(v))
            }
            s => s,
        };
        match self.params.binary_search_by(|(k, _)| k.as_str().cmp(key)) {
            Ok(i) => self.params[i].1 = value,
            Err(i) => self.params.insert(i, (key.to_string(), value)),
        }
    }

    /// Builder-style [`Scenario::set_param`].
    #[must_use]
    pub fn with_param(mut self, key: &str, value: ParamValue) -> Self {
        self.set_param(key, value);
        self
    }

    /// Looks one param up.
    pub fn param(&self, key: &str) -> Option<&ParamValue> {
        self.params
            .binary_search_by(|(k, _)| k.as_str().cmp(key))
            .ok()
            .map(|i| &self.params[i].1)
    }

    /// All params in canonical (key-sorted) order.
    pub fn params(&self) -> &[(String, ParamValue)] {
        &self.params
    }

    /// Deterministic FNV-1a content hash over a canonical byte encoding of
    /// every field. Equal scenarios hash equal across processes and
    /// builds; any field change (seed, fidelity, any param) changes the
    /// hash.
    pub fn content_hash(&self) -> u64 {
        let mut bytes = Vec::with_capacity(64);
        {
            let mut eat = |b: &[u8]| bytes.extend_from_slice(b);
            eat(&self.seed.to_le_bytes());
            eat(&[self.fidelity as u8]);
            for (key, value) in &self.params {
                eat(key.as_bytes());
                eat(&[0]);
                value.eat(&mut eat);
            }
        }
        crate::rng::fnv1a(&bytes)
    }

    /// The content hash as the fixed-width hex string used in campaign
    /// checkpoints and the serve cache diagnostics.
    pub fn content_hash_hex(&self) -> String {
        format!("{:016x}", self.content_hash())
    }

    /// The canonical single-line JSON encoding ([`Scenario::to_json`],
    /// encoded). Parsing it back and re-encoding is bit-identical.
    pub fn encode_canonical(&self) -> String {
        self.to_json().encode()
    }

    /// Reconstructs a scenario from its JSON form. All members are
    /// optional and default to the [`Scenario::default`] values; unknown
    /// members are rejected.
    ///
    /// # Errors
    ///
    /// Returns a description of the first structural problem.
    pub fn from_json(doc: &Json) -> Result<Self, String> {
        let Json::Obj(members) = doc else {
            return Err("scenario must be a JSON object".into());
        };
        let mut scenario = Scenario::default();
        for (name, value) in members {
            match name.as_str() {
                "seed" => scenario.seed = parse_seed(value)?,
                "fidelity" => scenario.fidelity = Fidelity::from_json_value(value)?,
                "params" => {
                    let Json::Obj(params) = value else {
                        return Err("`params` must be a JSON object".into());
                    };
                    for (key, raw) in params {
                        if scenario.param(key).is_some() {
                            return Err(format!("duplicate param `{key}`"));
                        }
                        let parsed = ParamValue::from_json_value(raw)
                            .map_err(|e| format!("param `{key}`: {e}"))?;
                        scenario.set_param(key, parsed);
                    }
                }
                other => return Err(format!("unknown scenario member `{other}`")),
            }
        }
        Ok(scenario)
    }
}

impl ToJson for Scenario {
    /// The canonical JSON form: fixed member order (`seed`, `fidelity`,
    /// `params`), params key-sorted. Seeds above 2^53 encode as
    /// decimal strings (a JSON number would round); everything else uses
    /// the shortest round-trip number form of the in-tree encoder.
    fn to_json(&self) -> Json {
        let seed = if self.seed <= (1u64 << 53) {
            Json::Num(self.seed as f64)
        } else {
            Json::Str(self.seed.to_string())
        };
        Json::Obj(vec![
            ("seed".to_string(), seed),
            ("fidelity".to_string(), self.fidelity.name().to_json()),
            (
                "params".to_string(),
                Json::Obj(
                    self.params
                        .iter()
                        .map(|(k, v)| (k.clone(), v.to_json_value()))
                        .collect(),
                ),
            ),
        ])
    }
}

/// Parses the `seed` member: a non-negative integer number (exact up to
/// 2^53) or a decimal string (full `u64` range).
fn parse_seed(value: &Json) -> Result<u64, String> {
    match value {
        Json::Num(v) if v.is_finite() && *v >= 0.0 && v.fract() == 0.0 && *v <= 2f64.powi(53) => {
            Ok(*v as u64)
        }
        Json::Str(s) => s
            .parse::<u64>()
            .map_err(|_| format!("`seed` string `{s}` is not a u64")),
        _ => Err("`seed` must be a non-negative integer or a decimal string".into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ptest::Gen;

    fn round_trip(s: &Scenario) -> Scenario {
        let encoded = s.encode_canonical();
        let doc = Json::parse(&encoded).expect("canonical form parses");
        Scenario::from_json(&doc).expect("canonical form loads")
    }

    #[test]
    fn default_is_the_golden_configuration() {
        let s = Scenario::default();
        assert_eq!(s.seed, crate::rng::DEFAULT_SEED);
        assert!(s.fidelity.is_quick());
        assert!(s.params().is_empty());
        assert_eq!(s, Scenario::new(crate::rng::DEFAULT_SEED, Fidelity::Quick));
    }

    #[test]
    fn params_stay_sorted_and_unique() {
        let mut s = Scenario::default();
        s.set_param("zeta", ParamValue::Num(1.0));
        s.set_param("alpha", ParamValue::Str("x".into()));
        s.set_param("mid", ParamValue::Num(2.0));
        s.set_param("zeta", ParamValue::Num(3.0)); // replace, not duplicate
        let keys: Vec<&str> = s.params().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, vec!["alpha", "mid", "zeta"]);
        assert_eq!(s.param("zeta"), Some(&ParamValue::Num(3.0)));
        assert_eq!(s.param("nope"), None);
    }

    #[test]
    fn negative_zero_is_normalised() {
        let a = Scenario::default().with_param("x", ParamValue::Num(-0.0));
        let b = Scenario::default().with_param("x", ParamValue::Num(0.0));
        assert_eq!(a, b);
        assert_eq!(a.content_hash(), b.content_hash());
        assert_eq!(a.encode_canonical(), b.encode_canonical());
    }

    #[test]
    #[should_panic(expected = "must be finite")]
    fn non_finite_params_rejected() {
        let _ = Scenario::default().with_param("x", ParamValue::Num(f64::NAN));
    }

    #[test]
    fn big_seeds_round_trip_through_strings() {
        let s = Scenario::new(u64::MAX, Fidelity::Full);
        let encoded = s.encode_canonical();
        assert!(encoded.contains("\"18446744073709551615\""));
        assert_eq!(round_trip(&s), s);
        // Small seeds stay natural JSON numbers.
        let small = Scenario::new(42, Fidelity::Quick);
        assert!(small.encode_canonical().contains("\"seed\":42"));
        assert_eq!(round_trip(&small), small);
    }

    #[test]
    fn from_json_accepts_defaults_and_rejects_garbage() {
        let ok = Scenario::from_json(&Json::parse("{}").unwrap()).expect("empty object");
        assert_eq!(ok, Scenario::default());
        for (bad, needle) in [
            ("[]", "must be a JSON object"),
            ("{\"sed\":1}", "unknown scenario member"),
            ("{\"seed\":-1}", "`seed`"),
            ("{\"seed\":1.5}", "`seed`"),
            ("{\"seed\":\"nope\"}", "not a u64"),
            // The thread count is an execution resource, not an input.
            ("{\"threads\":1}", "unknown scenario member `threads`"),
            ("{\"fidelity\":\"fast\"}", "fidelity must be"),
            ("{\"fidelity\":{\"scale\":8}}", "fidelity must be"),
            ("{\"params\":[1]}", "`params`"),
            ("{\"params\":{\"a\":null}}", "param `a`"),
            ("{\"params\":{\"a\":1,\"a\":2}}", "duplicate param"),
        ] {
            let doc = Json::parse(bad).expect("test input is valid JSON");
            let err = Scenario::from_json(&doc).expect_err(bad);
            assert!(err.contains(needle), "{bad}: {err}");
        }
    }

    #[test]
    fn content_hash_distinguishes_every_field() {
        let base = Scenario::new(1, Fidelity::Quick);
        let variants = [
            Scenario::new(2, Fidelity::Quick),
            Scenario::new(1, Fidelity::Full),
            base.clone().with_param("x", ParamValue::Num(1.0)),
            base.clone().with_param("x", ParamValue::Num(2.0)),
            base.clone().with_param("x", ParamValue::Str("1".into())),
            base.clone().with_param("y", ParamValue::Num(1.0)),
        ];
        for v in &variants {
            assert_ne!(v.content_hash(), base.content_hash(), "{v:?}");
        }
        // Pairwise distinct too (a cheap FNV sanity check).
        for (i, a) in variants.iter().enumerate() {
            for b in &variants[i + 1..] {
                assert_ne!(a.content_hash(), b.content_hash(), "{a:?} vs {b:?}");
            }
        }
        assert_eq!(base.content_hash_hex().len(), 16);
    }

    #[test]
    fn hash_is_stable_across_runs() {
        // Same-process determinism; cross-process stability follows from
        // the canonical byte encoding (no pointers, no map order).
        let s = Scenario::default().with_param("cells", ParamValue::Num(500.0));
        assert_eq!(s.content_hash(), s.clone().content_hash());
    }

    /// Draws an arbitrary scenario, including JSON-hostile param names
    /// (quotes, backslashes, control characters, non-ASCII) and extreme
    /// numeric values.
    fn arbitrary_scenario(g: &mut Gen) -> Scenario {
        let fidelity = if g.u64().is_multiple_of(2) {
            Fidelity::Quick
        } else {
            Fidelity::Full
        };
        let mut s = Scenario::new(g.u64(), fidelity);
        for _ in 0..g.usize_in(0..7) {
            let key = String::from_utf8_lossy(&g.bytes(0..13)).into_owned();
            let value = if g.u64().is_multiple_of(3) {
                ParamValue::Str(String::from_utf8_lossy(&g.bytes(0..17)).into_owned())
            } else {
                // Extreme magnitudes and signs, all finite.
                let exp = g.f64_in(-300.0, 300.0);
                let mantissa = g.f64_in(-10.0, 10.0);
                let v = mantissa * 10f64.powf(exp);
                ParamValue::Num(if v.is_finite() { v } else { 0.0 })
            };
            s.set_param(&key, value);
        }
        s
    }

    crate::ptest! {
        fn scenario_json_round_trips_bit_identically(g) {
            let s = arbitrary_scenario(g);
            let first = s.encode_canonical();
            let back = round_trip(&s);
            assert_eq!(back, s);
            // Bit-identical canonical encoding after a full round trip.
            assert_eq!(back.encode_canonical(), first);
        }

        fn equal_scenarios_hash_equal_and_param_changes_hash_differently(g) {
            let s = arbitrary_scenario(g);
            assert_eq!(round_trip(&s).content_hash(), s.content_hash());
            // Flipping one param must change the hash.
            let mut tweaked = s.clone();
            match s.params().first().cloned() {
                Some((key, ParamValue::Num(v))) => {
                    let bumped = if v + 1.0 == v { v * 2.0 + 1.0 } else { v + 1.0 };
                    tweaked.set_param(&key, ParamValue::Num(bumped));
                }
                Some((key, ParamValue::Str(v))) => {
                    tweaked.set_param(&key, ParamValue::Str(format!("{v}!")));
                }
                None => tweaked.set_param("extra", ParamValue::Num(1.0)),
            }
            assert_ne!(
                tweaked.content_hash(),
                s.content_hash(),
                "param change must change the content hash"
            );
        }
    }
}
