//! The textual form of a [`SystemSpec`], the one way a configuration is
//! spelled: by `simulate --system`, in a failed sweep point's repro line
//! and in the sweep journal's keys.
//!
//! A spec is a family, then `:`-separated `field=value` overrides:
//! `ncp:pc=1/16:threshold=fixed32` is Figure 6's `ncp16-fixed32`. A bare
//! family is its constructor's spec, name included (`vb` is `vb16`;
//! `ncp`, `vbp`, `vpp` and `vxp` cache 1/5 of the data set). [`usage`]
//! lists the families and fields; `apply` says what each field sets.
//! [`render`] writes only the fields that differ from the family's
//! defaults, so a spec has one text and distinct specs distinct texts.
//! [`parse`] takes fields in any order, rejects unknown, repeated and
//! inapplicable ones, and runs [`SystemSpec::validate`]; a spec with
//! overrides is named by its rendered text.

use std::fmt::Write as _;

use dsm_types::ConfigError;

use super::CounterSource::{self, Directory, VictimSets};
use super::DirectorySpec::{self, LimitedPointer};
use super::NcIndexingSpec::{self, Block, Page};
use super::{MigRepSpec, NcSpec, PcSize, SystemSpec, ThresholdPolicy};

/// A family and the spec it parses to.
type Family = (&'static str, fn() -> SystemSpec);

const FAMILIES: [Family; 13] = [
    ("base", SystemSpec::base),
    ("nc", SystemSpec::nc),
    ("vb", SystemSpec::vb),
    ("vp", SystemSpec::vp),
    ("ncd", SystemSpec::ncd),
    ("ncs", SystemSpec::ncs),
    ("inf-dram", SystemSpec::infinite_dram),
    ("ncp", || SystemSpec::ncp(PcSize::DataFraction(5))),
    ("vbp", || SystemSpec::vbp(PcSize::DataFraction(5))),
    ("vpp", || SystemSpec::vpp(PcSize::DataFraction(5))),
    ("vxp", || SystemSpec::vxp(PcSize::DataFraction(5), 32)),
    ("origin", SystemSpec::origin),
    ("origin-vb", SystemSpec::origin_vb),
];

/// The fields in canonical order: `pc` and `migrep`, which add a
/// component, come before the fields that configure it.
const FIELDS: &str = "cache-bytes cache-ways nc-bytes nc-ways indexing capture-clean pc \
                      counters threshold decrement dirty-shared migrep migration replication \
                      pointers";

const SWITCH: [(bool, &str); 2] = [(true, "on"), (false, "off")];
const INDEXING: [(NcIndexingSpec, &str); 2] = [(Block, "block"), (Page, "page")];
const COUNTERS: [(CounterSource, &str); 2] =
    [(Directory, "directory"), (VictimSets, "victim-sets")];
const NO_PC: &str = "does not apply without a page cache";
const NO_MIGREP: &str = "does not apply without OS page migration/replication";

/// The families and the fields, for usage messages.
#[must_use]
pub fn usage() -> String {
    format!("families: {}\nfields: {FIELDS}", families())
}

fn families() -> String {
    FAMILIES.map(|f| f.0).join(" ")
}

fn family(token: &str) -> Option<SystemSpec> {
    FAMILIES.iter().find(|f| f.0 == token).map(|f| f.1())
}

/// The family [`render`] spells `spec` with: the NC's family, or its
/// page-cache or OS-migration variant.
fn family_of(spec: &SystemSpec) -> &'static str {
    let nc = match spec.nc {
        NcSpec::None => "base",
        NcSpec::SramInclusion { .. } => "nc",
        NcSpec::SramVictim { indexing: Page, .. } => "vp",
        NcSpec::SramVictim { .. } => "vb",
        NcSpec::DramInclusion { .. } => "ncd",
        NcSpec::Infinite { dram: false } => "ncs",
        NcSpec::Infinite { dram: true } => "inf-dram",
    };
    match (nc, spec.pc.map(|pc| pc.counters), spec.migrep.is_some()) {
        ("vb" | "vp", Some(VictimSets), _) => "vxp",
        ("nc", Some(_), _) => "ncp",
        ("vb", Some(_), _) => "vbp",
        ("vp", Some(_), _) => "vpp",
        ("base", None, true) => "origin",
        ("vb" | "vp", None, true) => "origin-vb",
        _ => nc,
    }
}

fn word<T: PartialEq>(words: [(T, &str); 2], value: &T) -> String {
    let found = words.into_iter().find(|(v, _)| v == value);
    found.expect("every value has a word").1.to_owned()
}

fn from_word<T: Copy>(words: [(T, &str); 2], text: &str) -> Result<T, String> {
    let found = words.iter().find(|w| w.1 == text).map(|w| w.0);
    found.ok_or_else(|| format!("'{text}' is neither '{}' nor '{}'", words[0].1, words[1].1))
}

fn number<T: std::str::FromStr>(text: &str) -> Result<T, String> {
    let parsed = text.parse().ok();
    parsed.ok_or_else(|| format!("'{text}' is not a non-negative integer"))
}

fn sized(nc: &mut NcSpec) -> Result<(&mut u64, &mut usize), &'static str> {
    match nc {
        NcSpec::SramInclusion { bytes, ways }
        | NcSpec::SramVictim { bytes, ways, .. }
        | NcSpec::DramInclusion { bytes, ways } => Ok((bytes, ways)),
        _ => Err("does not apply without a finite network cache"),
    }
}

fn victim(nc: &mut NcSpec) -> Result<(&mut NcIndexingSpec, &mut bool), &'static str> {
    match nc {
        NcSpec::SramVictim {
            indexing,
            capture_clean,
            ..
        } => Ok((indexing, capture_clean)),
        _ => Err("does not apply without a victim network cache"),
    }
}

/// Each field's value in `spec`, in `FIELDS` order; `None` where the
/// spec lacks the component the field configures.
fn values(spec: &SystemSpec) -> Vec<Option<String>> {
    // Exhaustive destructuring, so a new spec field cannot escape the
    // text. The family carries the NC's kind; `sized` and `victim` read
    // the rest of it.
    let SystemSpec {
        name: _,
        cache,
        nc,
        pc,
        dirty_shared,
        migrep,
        directory,
    } = spec;
    let mut nc = *nc;
    let sized = sized(&mut nc).ok().map(|(bytes, ways)| (*bytes, *ways));
    let victim = victim(&mut nc)
        .ok()
        .map(|(indexing, capture)| (*indexing, *capture));
    vec![
        Some(cache.bytes.to_string()),
        Some(cache.ways.to_string()),
        sized.map(|(bytes, _)| bytes.to_string()),
        sized.map(|(_, ways)| ways.to_string()),
        victim.map(|(indexing, _)| word(INDEXING, &indexing)),
        victim.map(|(_, capture)| word(SWITCH, &capture)),
        pc.map(|pc| match pc.size {
            PcSize::DataFraction(d) => format!("1/{d}"),
            PcSize::Bytes(b) => b.to_string(),
        }),
        pc.map(|pc| word(COUNTERS, &pc.counters)),
        pc.map(|pc| match pc.threshold {
            ThresholdPolicy::Fixed(t) => format!("fixed{t}"),
            ThresholdPolicy::Adaptive { initial } => format!("adaptive{initial}"),
        }),
        pc.map(|pc| word(SWITCH, &pc.decrement_on_invalidation)),
        Some(word(SWITCH, dirty_shared)),
        migrep.map(|m| m.threshold.to_string()),
        migrep.map(|m| word(SWITCH, &m.migration)),
        migrep.map(|m| word(SWITCH, &m.replication)),
        match directory {
            DirectorySpec::FullMap => None,
            LimitedPointer { pointers } => Some(pointers.to_string()),
        },
    ]
}

/// Sets the field `name` of `spec` to `value`, or says why it cannot.
/// `pc` gives a family without a page cache one with directory counters
/// and an adaptive threshold from 32 (Figure 7's `pc9` is `base:pc=1/9`),
/// and `migrep` likewise adds OS page migration/replication. `decrement`
/// is the victim-set counters' invalidation decrement.
fn apply(spec: &mut SystemSpec, name: &str, value: &str) -> Result<(), String> {
    match name {
        "cache-bytes" => spec.cache.bytes = number(value)?,
        "cache-ways" => spec.cache.ways = number(value)?,
        "nc-bytes" => *sized(&mut spec.nc)?.0 = number(value)?,
        "nc-ways" => *sized(&mut spec.nc)?.1 = number(value)?,
        "indexing" => *victim(&mut spec.nc)?.0 = from_word(INDEXING, value)?,
        "capture-clean" => *victim(&mut spec.nc)?.1 = from_word(SWITCH, value)?,
        "pc" => {
            let size = match value.strip_prefix("1/") {
                Some(d) => PcSize::DataFraction(number(d)?),
                None => PcSize::Bytes(number(value)?),
            };
            spec.pc.get_or_insert(SystemSpec::directory_pc(size)).size = size;
        }
        "counters" => spec.pc.as_mut().ok_or(NO_PC)?.counters = from_word(COUNTERS, value)?,
        "threshold" => {
            let policy = match (value.strip_prefix("fixed"), value.strip_prefix("adaptive")) {
                (Some(t), _) => ThresholdPolicy::Fixed(number(t)?),
                (_, Some(t)) => number(t).map(|initial| ThresholdPolicy::Adaptive { initial })?,
                _ => return Err(format!("'{value}' is neither fixed<t> nor adaptive<t>")),
            };
            spec.pc.as_mut().ok_or(NO_PC)?.threshold = policy;
        }
        "decrement" => {
            let pc = spec.pc.as_mut().ok_or(NO_PC)?;
            if pc.counters != VictimSets {
                return Err("refines victim-set counters only".to_owned());
            }
            pc.decrement_on_invalidation = from_word(SWITCH, value)?;
        }
        "dirty-shared" => spec.dirty_shared = from_word(SWITCH, value)?,
        "migrep" => {
            let migrep = spec.migrep.get_or_insert_with(MigRepSpec::default);
            migrep.threshold = number(value)?;
        }
        "migration" => {
            spec.migrep.as_mut().ok_or(NO_MIGREP)?.migration = from_word(SWITCH, value)?;
        }
        "replication" => {
            spec.migrep.as_mut().ok_or(NO_MIGREP)?.replication = from_word(SWITCH, value)?;
        }
        "pointers" => spec.directory = number(value).map(|pointers| LimitedPointer { pointers })?,
        _ => return Err("is not a field".to_owned()),
    }
    Ok(())
}

/// The canonical text of `spec`: its family, then each field that
/// differs from what the text so far spells, in `FIELDS` order. The
/// name is not part of it.
#[must_use]
pub fn render(spec: &SystemSpec) -> String {
    let token = family_of(spec);
    let mut text = token.to_owned();
    let mut spelled = family(token).expect("family_of returns a family");
    for (i, (name, want)) in FIELDS.split_whitespace().zip(values(spec)).enumerate() {
        let Some(want) = want else { continue };
        if values(&spelled)[i].as_ref() != Some(&want) {
            // A field `parse` would reject is still written, so distinct
            // specs never share a text.
            let _ = apply(&mut spelled, name, &want);
            let _ = write!(text, ":{name}={want}");
        }
    }
    text
}

/// Parses a spec's text. See the module docs for the syntax.
///
/// # Errors
///
/// A [`ConfigError`] naming the family or field at fault: an unknown
/// family or field, a repeated field, a field without a value, a bad
/// value, a field that does not apply to the spec, or a spec that fails
/// [`SystemSpec::validate`].
pub fn parse(text: &str) -> Result<SystemSpec, ConfigError> {
    let error = |e: String| ConfigError::new(format!("system '{text}': {e}"));
    let mut parts = text.split(':');
    let token = parts.next().unwrap_or_default();
    let unknown = || format!("unknown family '{token}' (families: {})", families());
    let mut spec = family(token).ok_or_else(|| error(unknown()))?;
    let mut fields = Vec::new();
    for part in parts {
        let (name, value) = part
            .split_once('=')
            .ok_or_else(|| error(format!("field '{part}' needs a value (<field>=<value>)")))?;
        let order = FIELDS.split_whitespace().position(|f| f == name);
        let order =
            order.ok_or_else(|| error(format!("unknown field '{name}' (fields: {FIELDS})")))?;
        if fields.iter().any(|&(o, _, _)| o == order) {
            return Err(error(format!("field '{name}' is given twice")));
        }
        fields.push((order, name, value));
    }
    // Canonical order, so a component is added before it is configured.
    fields.sort_unstable_by_key(|&(order, _, _)| order);
    for (_, name, value) in fields {
        apply(&mut spec, name, value).map_err(|e| error(format!("field '{name}' {e}")))?;
    }
    spec.validate().map_err(|e| error(e.to_string()))?;
    let canonical = render(&spec);
    spec.name = family(&canonical).map_or(canonical, |bare| bare.name);
    Ok(spec)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bare_families_are_the_constructors() {
        for (token, constructor) in FAMILIES {
            let spec = parse(token).unwrap();
            assert_eq!(spec, constructor(), "{token}");
            assert_eq!(render(&spec), token);
        }
        assert_eq!(parse("vb").unwrap().name, "vb16");
        assert_eq!(parse("vxp").unwrap().name, "vxp5(t32)");
    }

    #[test]
    fn overrides_name_the_spec_by_its_canonical_text() {
        let spec = parse("ncp:threshold=fixed32:pc=1/16").unwrap();
        assert_eq!(spec.pc.unwrap().threshold, ThresholdPolicy::Fixed(32));
        assert_eq!(spec.pc.unwrap().size, PcSize::DataFraction(16));
        assert_eq!(spec.name, "ncp:pc=1/16:threshold=fixed32");
        // A default value is no override, and another family's spelling
        // of a bare family is that family.
        assert_eq!(parse("ncp:pc=1/5").unwrap().name, "ncp5");
        assert_eq!(parse("nc:pc=1/5").unwrap(), parse("ncp").unwrap());
        assert_eq!(parse("vpp:counters=victim-sets").unwrap().name, "vxp5(t32)");
    }

    #[test]
    fn render_writes_what_differs_from_the_family() {
        let cases = [
            (
                SystemSpec::vb_sized(1024).with_cache(16 * 1024, 1),
                "vb:cache-ways=1:nc-bytes=1024",
            ),
            (
                SystemSpec::vxp(PcSize::DataFraction(5), 64),
                "vxp:threshold=adaptive64",
            ),
            (
                SystemSpec::vxp(PcSize::Bytes(8192), 32).with_invalidation_decrement(),
                "vxp:pc=8192:decrement=on",
            ),
            (
                SystemSpec::vb().without_mesir_capture(),
                "vb:capture-clean=off",
            ),
            (
                SystemSpec::base()
                    .with_limited_directory(4)
                    .with_dirty_shared(),
                "base:dirty-shared=on:pointers=4",
            ),
        ];
        for (spec, text) in cases {
            assert_eq!(render(&spec), text, "{}", spec.name);
        }
        // Figure 7's page cache without an NC, and OS migration added to
        // a family without it.
        let mut pc_only = SystemSpec::base();
        pc_only.pc = SystemSpec::ncp(PcSize::DataFraction(9)).pc;
        assert_eq!(render(&pc_only), "base:pc=1/9");
        let mut nc_migrep = SystemSpec::nc();
        nc_migrep.migrep = Some(MigRepSpec::default());
        assert_eq!(render(&nc_migrep), "nc:migrep=32");
        let mut origin = SystemSpec::origin();
        origin.migrep.as_mut().unwrap().replication = false;
        assert_eq!(render(&origin), "origin:replication=off");
    }

    #[test]
    fn unknown_inapplicable_and_inconsistent_fields_are_errors() {
        let cases = [
            ("vbx", "unknown family 'vbx'"),
            ("vb:threshold", "field 'threshold' needs a value"),
            ("vb:color=red", "unknown field 'color'"),
            (
                "vb:cache-ways=2:cache-ways=4",
                "field 'cache-ways' is given twice",
            ),
            ("vb:cache-ways=two", "field 'cache-ways' 'two' is not"),
            (
                "vb:indexing=set",
                "field 'indexing' 'set' is neither 'block' nor 'page'",
            ),
            (
                "base:threshold=fixed32",
                "field 'threshold' does not apply without a page",
            ),
            (
                "base:nc-bytes=1024",
                "field 'nc-bytes' does not apply without a finite",
            ),
            (
                "ncs:indexing=page",
                "field 'indexing' does not apply without a victim",
            ),
            (
                "vb:migration=off",
                "field 'migration' does not apply without OS",
            ),
            (
                "ncp:decrement=on",
                "field 'decrement' refines victim-set counters only",
            ),
            ("vb:pointers=0", "holds 1 to 8 sharer pointers, not 0"),
            ("base:pointers=9", "holds 1 to 8 sharer pointers, not 9"),
            (
                "ncp:threshold=fixed0",
                "relocation threshold must be nonzero",
            ),
            ("origin:pc=1/5", "mutually exclusive"),
            (
                "base:pc=1/5:counters=victim-sets",
                "require a victim network cache",
            ),
        ];
        for (text, message) in cases {
            let e = parse(text).expect_err(text).to_string();
            assert!(e.contains(message), "{text}: {e}");
        }
        // The full-map requirement names the spec that breaks it.
        assert_eq!(
            parse("ncp:pointers=4").unwrap_err().to_string(),
            "system 'ncp:pointers=4': R-NUMA's directory relocation counters require a \
             full-map directory (the paper's scalability critique); use vxp's victim-set \
             counters"
        );
    }
}
