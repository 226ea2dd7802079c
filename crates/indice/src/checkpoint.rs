//! Stage-boundary checkpoint codecs for durable runs.
//!
//! A durable run (see [`crate::durable`]) commits the product of each
//! completed stage to disk so an interrupted run can resume without
//! recomputation. The resumed pipeline must produce artifacts
//! *byte-identical* to an uninterrupted run, so these codecs are exact:
//! every `f64` goes through [`epc_model::jsonnum`] (the shim's derived
//! float encoding loses `NaN`, `±∞` and the sign of `-0.0` — and
//! `AssociationRule::conviction` is infinite for exact rules, while
//! `CorrelationMatrix` uses `NaN` for undefined pairs).
//!
//! Encodings are hand-rolled JSON `Value` trees with sorted object keys
//! (the shim's `Map` is a `BTreeMap`), so encoding is deterministic:
//! encode ∘ decode ∘ encode is the identity on bytes, which is what lets
//! CI tree-hash a resumed run directory against an uninterrupted one.
//! The two checkpoints that carry a dataset write their top-level object
//! field by field ([`write_object`]) and the dataset column by column
//! ([`Dataset::write_json`]), so no tree of the whole dataset is built;
//! the text is the same as the whole tree's.

use crate::analytics::{AnalyticsOutput, ClusterSummary};
use crate::preprocess::{CleanPhase, PreprocessOutput};
use epc_mining::{AssociationRule, DbscanConfig, Discretizer, KMeansModel, Matrix};
use epc_model::jsonnum::{decode_f64, decode_opt_f64, encode_f64, encode_opt_f64};
use epc_model::{Dataset, Quarantine};
use epc_stats::CorrelationMatrix;
use serde::{Deserialize, Error, Map, Serialize, Value};

/// Format tag written into every checkpoint; bumped on layout changes so
/// a resume against a stale checkpoint fails validation instead of
/// decoding garbage.
const FORMAT: &str = "indice-checkpoint-v1";

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_owned(), v))
            .collect::<Map<String, Value>>(),
    )
}

fn field<'a>(v: &'a Value, name: &str) -> Result<&'a Value, Error> {
    v.get(name)
        .ok_or_else(|| Error::custom(format!("checkpoint missing field {name:?}")))
}

fn usize_field(v: &Value, name: &str) -> Result<usize, Error> {
    field(v, name)?
        .as_u64()
        .map(|x| x as usize)
        .ok_or_else(|| Error::custom(format!("checkpoint field {name:?} must be an integer")))
}

fn f64_array(xs: &[f64]) -> Value {
    Value::Array(xs.iter().copied().map(encode_f64).collect())
}

fn decode_f64_array(v: &Value) -> Result<Vec<f64>, Error> {
    v.as_array()
        .ok_or_else(|| Error::mismatch("array of f64", v))?
        .iter()
        .map(decode_f64)
        .collect()
}

fn encode_dbscan(c: &DbscanConfig) -> Value {
    obj(vec![
        ("eps", encode_f64(c.eps)),
        ("min_points", Value::Num(c.min_points as f64)),
    ])
}

fn decode_dbscan(v: &Value) -> Result<DbscanConfig, Error> {
    Ok(DbscanConfig {
        eps: decode_f64(field(v, "eps")?)?,
        min_points: usize_field(v, "min_points")?,
    })
}

fn encode_correlation(c: &CorrelationMatrix) -> Value {
    obj(vec![
        ("names", c.names.to_json_value()),
        ("values", f64_array(&c.values)),
    ])
}

fn decode_correlation(v: &Value) -> Result<CorrelationMatrix, Error> {
    let names = Vec::<String>::from_json_value(field(v, "names")?)?;
    let values = decode_f64_array(field(v, "values")?)?;
    if values.len() != names.len() * names.len() {
        return Err(Error::custom(format!(
            "correlation matrix has {} values for {} names",
            values.len(),
            names.len()
        )));
    }
    Ok(CorrelationMatrix { names, values })
}

fn encode_kmeans(m: &KMeansModel) -> Value {
    obj(vec![
        (
            "centroids",
            obj(vec![
                ("data", f64_array(m.centroids.data())),
                ("n_cols", Value::Num(m.centroids.n_cols() as f64)),
                ("n_rows", Value::Num(m.centroids.n_rows() as f64)),
            ]),
        ),
        ("assignments", m.assignments.to_json_value()),
        ("converged", Value::Bool(m.converged)),
        ("n_iter", Value::Num(m.n_iter as f64)),
        ("sse", encode_f64(m.sse)),
    ])
}

fn decode_kmeans(v: &Value) -> Result<KMeansModel, Error> {
    let c = field(v, "centroids")?;
    let data = decode_f64_array(field(c, "data")?)?;
    let n_rows = usize_field(c, "n_rows")?;
    let n_cols = usize_field(c, "n_cols")?;
    // Validate before `Matrix::from_vec`, which would panic on a mismatch.
    if data.len() != n_rows * n_cols {
        return Err(Error::custom(format!(
            "centroid matrix has {} cells for {n_rows}×{n_cols}",
            data.len()
        )));
    }
    Ok(KMeansModel {
        centroids: Matrix::from_vec(data, n_rows, n_cols),
        assignments: Vec::<usize>::from_json_value(field(v, "assignments")?)?,
        sse: decode_f64(field(v, "sse")?)?,
        n_iter: usize_field(v, "n_iter")?,
        converged: field(v, "converged")?
            .as_bool()
            .ok_or_else(|| Error::custom("converged must be a bool"))?,
    })
}

fn encode_discretizer(d: &Discretizer) -> Value {
    obj(vec![
        ("attribute", Value::Str(d.attribute.clone())),
        ("edges", f64_array(&d.edges)),
        ("labels", d.labels.to_json_value()),
    ])
}

fn decode_discretizer(v: &Value) -> Result<Discretizer, Error> {
    Ok(Discretizer {
        attribute: String::from_json_value(field(v, "attribute")?)?,
        edges: decode_f64_array(field(v, "edges")?)?,
        labels: Vec::<String>::from_json_value(field(v, "labels")?)?,
    })
}

fn encode_rule(r: &AssociationRule) -> Value {
    obj(vec![
        ("antecedent", r.antecedent.to_json_value()),
        ("confidence", encode_f64(r.confidence)),
        ("consequent", r.consequent.to_json_value()),
        ("conviction", encode_f64(r.conviction)),
        ("lift", encode_f64(r.lift)),
        ("support", encode_f64(r.support)),
    ])
}

fn decode_rule(v: &Value) -> Result<AssociationRule, Error> {
    Ok(AssociationRule {
        antecedent: Vec::<String>::from_json_value(field(v, "antecedent")?)?,
        consequent: Vec::<String>::from_json_value(field(v, "consequent")?)?,
        support: decode_f64(field(v, "support")?)?,
        confidence: decode_f64(field(v, "confidence")?)?,
        lift: decode_f64(field(v, "lift")?)?,
        conviction: decode_f64(field(v, "conviction")?)?,
    })
}

fn encode_summary(s: &ClusterSummary) -> Value {
    obj(vec![
        ("centroid", f64_array(&s.centroid)),
        ("cluster", Value::Num(s.cluster as f64)),
        ("mean_response", encode_opt_f64(s.mean_response)),
        ("size", Value::Num(s.size as f64)),
    ])
}

fn decode_summary(v: &Value) -> Result<ClusterSummary, Error> {
    Ok(ClusterSummary {
        cluster: usize_field(v, "cluster")?,
        size: usize_field(v, "size")?,
        centroid: decode_f64_array(field(v, "centroid")?)?,
        mean_response: decode_opt_f64(field(v, "mean_response")?)?,
    })
}

/// One top-level field of a checkpoint object.
enum Field<'a> {
    /// A small field, encoded as a tree.
    Tree(Value),
    /// The dataset, written one column at a time.
    Dataset(&'a Dataset),
}

/// The compact JSON text of an object with `fields`, written field by
/// field into one pre-sized String. `fields` must be in sorted key order:
/// that is the order a tree of the whole object (a `BTreeMap`) writes its
/// keys in, so the text equals that tree's `to_compact_string`.
fn write_object(fields: Vec<(&str, Field<'_>)>) -> String {
    debug_assert!(fields.windows(2).all(|w| w[0].0 < w[1].0));
    // The dataset dominates: a few bytes per cell.
    let hint: usize = fields
        .iter()
        .map(|(_, field)| match field {
            Field::Tree(_) => 64,
            Field::Dataset(ds) => 4 * ds.n_rows() * ds.n_cols() + 4096,
        })
        .sum();
    let mut out = String::with_capacity(hint);
    out.push('{');
    for (i, (key, field)) in fields.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&Value::Str(key.to_owned()).to_compact_string());
        out.push(':');
        match field {
            Field::Tree(v) => out.push_str(&v.to_compact_string()),
            Field::Dataset(ds) => ds.write_json(&mut out),
        }
    }
    out.push('}');
    out
}

fn check_format(v: &Value) -> Result<(), Error> {
    match field(v, "format")?.as_str() {
        Some(FORMAT) => Ok(()),
        Some(other) => Err(Error::custom(format!(
            "checkpoint format {other:?} does not match {FORMAT:?}"
        ))),
        None => Err(Error::custom("checkpoint format tag must be a string")),
    }
}

/// Serializes the preprocess product plus the quarantine state accumulated
/// up to the end of the stage.
pub fn encode_preprocess(out: &PreprocessOutput, quarantine: &Quarantine) -> String {
    use Field::Tree;
    write_object(vec![
        ("cleaning", Tree(out.cleaning.to_json_value())),
        ("dataset", Field::Dataset(&out.dataset)),
        (
            "dbscan_params",
            Tree(match &out.dbscan_params {
                Some(c) => encode_dbscan(c),
                None => Value::Null,
            }),
        ),
        ("degraded_rows", Tree(out.degraded_rows.to_json_value())),
        ("format", Tree(Value::Str(FORMAT.to_owned()))),
        ("kept_rows", Tree(out.kept_rows.to_json_value())),
        (
            "multivariate_flagged",
            Tree(out.multivariate_flagged.to_json_value()),
        ),
        ("quarantine", Tree(quarantine.to_json_value())),
        ("removed_rows", Tree(out.removed_rows.to_json_value())),
        (
            "univariate_flagged",
            Tree(out.univariate_flagged.to_json_value()),
        ),
    ])
}

/// Rehydrates a preprocess checkpoint written by [`encode_preprocess`].
pub fn decode_preprocess(text: &str) -> Result<(PreprocessOutput, Quarantine), Error> {
    let v = serde_json::from_str::<Value>(text)?;
    check_format(&v)?;
    let dbscan_params = match field(&v, "dbscan_params")? {
        Value::Null => None,
        other => Some(decode_dbscan(other)?),
    };
    let out = PreprocessOutput {
        dataset: Dataset::from_json_value(field(&v, "dataset")?)?,
        kept_rows: Deserialize::from_json_value(field(&v, "kept_rows")?)?,
        cleaning: Deserialize::from_json_value(field(&v, "cleaning")?)?,
        univariate_flagged: Deserialize::from_json_value(field(&v, "univariate_flagged")?)?,
        multivariate_flagged: Deserialize::from_json_value(field(&v, "multivariate_flagged")?)?,
        dbscan_params,
        removed_rows: Deserialize::from_json_value(field(&v, "removed_rows")?)?,
        degraded_rows: Deserialize::from_json_value(field(&v, "degraded_rows")?)?,
    };
    let quarantine = Quarantine::from_json_value(field(&v, "quarantine")?)?;
    Ok((out, quarantine))
}

/// Serializes a sealed generation's clean-phase delta (incremental
/// ingest). Everything a resuming ingest needs to re-merge the batch
/// without re-cleaning it: the validated dataset, the row provenance, the
/// additive cleaning counters, and the batch's quarantine.
pub fn encode_clean_phase(phase: &CleanPhase) -> String {
    use Field::Tree;
    write_object(vec![
        ("cleaning", Tree(phase.cleaning.to_json_value())),
        ("dataset", Field::Dataset(&phase.dataset)),
        ("degraded_rows", Tree(phase.degraded_rows.to_json_value())),
        ("format", Tree(Value::Str(FORMAT.to_owned()))),
        ("input_rows", Tree(Value::Num(phase.input_rows as f64))),
        ("orig_of", Tree(phase.orig_of.to_json_value())),
        ("quarantine", Tree(phase.quarantine.to_json_value())),
        (
            "unresolved_rows",
            Tree(phase.unresolved_rows.to_json_value()),
        ),
    ])
}

/// Rehydrates a clean-phase delta written by [`encode_clean_phase`].
pub fn decode_clean_phase(text: &str) -> Result<CleanPhase, Error> {
    let v = serde_json::from_str::<Value>(text)?;
    check_format(&v)?;
    Ok(CleanPhase {
        dataset: Dataset::from_json_value(field(&v, "dataset")?)?,
        orig_of: Deserialize::from_json_value(field(&v, "orig_of")?)?,
        input_rows: usize_field(&v, "input_rows")?,
        cleaning: Deserialize::from_json_value(field(&v, "cleaning")?)?,
        degraded_rows: Deserialize::from_json_value(field(&v, "degraded_rows")?)?,
        unresolved_rows: Deserialize::from_json_value(field(&v, "unresolved_rows")?)?,
        quarantine: Quarantine::from_json_value(field(&v, "quarantine")?)?,
    })
}

/// Serializes the analytics product.
pub fn encode_analytics(out: &AnalyticsOutput) -> String {
    let sse_curve = Value::Array(
        out.sse_curve
            .iter()
            .map(|(k, sse)| Value::Array(vec![Value::Num(*k as f64), encode_f64(*sse)]))
            .collect(),
    );
    let v = obj(vec![
        ("chosen_k", Value::Num(out.chosen_k as f64)),
        (
            "cluster_summaries",
            Value::Array(out.cluster_summaries.iter().map(encode_summary).collect()),
        ),
        ("correlation", encode_correlation(&out.correlation)),
        (
            "discretizers",
            Value::Array(out.discretizers.iter().map(encode_discretizer).collect()),
        ),
        ("eligible", Value::Bool(out.eligible)),
        ("feature_names", out.feature_names.to_json_value()),
        ("feature_rows", out.feature_rows.to_json_value()),
        ("format", Value::Str(FORMAT.to_owned())),
        ("kmeans", encode_kmeans(&out.kmeans)),
        (
            "response_discretizer",
            encode_discretizer(&out.response_discretizer),
        ),
        (
            "rules",
            Value::Array(out.rules.iter().map(encode_rule).collect()),
        ),
        ("sse_curve", sse_curve),
    ]);
    v.to_compact_string()
}

/// Rehydrates an analytics checkpoint written by [`encode_analytics`].
pub fn decode_analytics(text: &str) -> Result<AnalyticsOutput, Error> {
    let v = serde_json::from_str::<Value>(text)?;
    check_format(&v)?;
    let sse_curve = field(&v, "sse_curve")?
        .as_array()
        .ok_or_else(|| Error::custom("sse_curve must be an array"))?
        .iter()
        .map(|pair| {
            let pair = pair
                .as_array()
                .filter(|p| p.len() == 2)
                .ok_or_else(|| Error::custom("sse_curve entries must be [k, sse] pairs"))?;
            let k = pair[0]
                .as_u64()
                .ok_or_else(|| Error::custom("sse_curve k must be an integer"))?
                as usize;
            Ok((k, decode_f64(&pair[1])?))
        })
        .collect::<Result<Vec<(usize, f64)>, Error>>()?;
    fn decode_vec<T>(
        v: &Value,
        name: &str,
        f: impl Fn(&Value) -> Result<T, Error>,
    ) -> Result<Vec<T>, Error> {
        field(v, name)?
            .as_array()
            .ok_or_else(|| Error::custom(format!("{name} must be an array")))?
            .iter()
            .map(f)
            .collect()
    }
    Ok(AnalyticsOutput {
        feature_names: Deserialize::from_json_value(field(&v, "feature_names")?)?,
        correlation: decode_correlation(field(&v, "correlation")?)?,
        eligible: field(&v, "eligible")?
            .as_bool()
            .ok_or_else(|| Error::custom("eligible must be a bool"))?,
        sse_curve,
        chosen_k: usize_field(&v, "chosen_k")?,
        kmeans: decode_kmeans(field(&v, "kmeans")?)?,
        feature_rows: Deserialize::from_json_value(field(&v, "feature_rows")?)?,
        cluster_summaries: decode_vec(&v, "cluster_summaries", decode_summary)?,
        discretizers: decode_vec(&v, "discretizers", decode_discretizer)?,
        response_discretizer: decode_discretizer(field(&v, "response_discretizer")?)?,
        rules: decode_vec(&v, "rules", decode_rule)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use epc_geo::cleaning::CleaningReport;
    use epc_model::{AttrId, AttributeDef, RecordFault, Schema};
    use proptest::prelude::*;
    use std::collections::BTreeMap;
    use std::sync::Arc;

    /// `encode_preprocess` as one tree of the whole checkpoint.
    fn oracle_encode_preprocess(out: &PreprocessOutput, quarantine: &Quarantine) -> String {
        obj(vec![
            ("cleaning", out.cleaning.to_json_value()),
            ("dataset", out.dataset.to_json_value()),
            (
                "dbscan_params",
                match &out.dbscan_params {
                    Some(c) => encode_dbscan(c),
                    None => Value::Null,
                },
            ),
            ("degraded_rows", out.degraded_rows.to_json_value()),
            ("format", Value::Str(FORMAT.to_owned())),
            ("kept_rows", out.kept_rows.to_json_value()),
            (
                "multivariate_flagged",
                out.multivariate_flagged.to_json_value(),
            ),
            ("quarantine", quarantine.to_json_value()),
            ("removed_rows", out.removed_rows.to_json_value()),
            ("univariate_flagged", out.univariate_flagged.to_json_value()),
        ])
        .to_compact_string()
    }

    /// `encode_clean_phase` as one tree of the whole checkpoint.
    fn oracle_encode_clean_phase(phase: &CleanPhase) -> String {
        obj(vec![
            ("cleaning", phase.cleaning.to_json_value()),
            ("dataset", phase.dataset.to_json_value()),
            ("degraded_rows", phase.degraded_rows.to_json_value()),
            ("format", Value::Str(FORMAT.to_owned())),
            ("input_rows", Value::Num(phase.input_rows as f64)),
            ("orig_of", phase.orig_of.to_json_value()),
            ("quarantine", phase.quarantine.to_json_value()),
            ("unresolved_rows", phase.unresolved_rows.to_json_value()),
        ])
        .to_compact_string()
    }

    /// Cells on every exact-encoding branch, and labels that need JSON
    /// escapes.
    const NUMBERS: [f64; 9] = [
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        -0.0,
        0.0,
        5e-324,
        1.0 / 3.0,
        1e300,
        -2016.0,
    ];
    const LABELS: [&str; 6] = [
        "plain",
        "quote \" and \\",
        "new\nline",
        "tab\t",
        "\u{1}ctl",
        "città",
    ];

    fn dataset(cells: &[(usize, usize, usize)], relabel: &[(usize, usize)]) -> Dataset {
        let schema = Arc::new(
            Schema::new(vec![
                AttributeDef::numeric("x", "", ""),
                AttributeDef::categorical("label \"q\"", ""),
                AttributeDef::numeric("y", "m", ""),
            ])
            .unwrap(),
        );
        let mut ds = Dataset::new(schema);
        let num = |i: usize| {
            NUMBERS
                .get(i)
                .map_or(epc_model::Value::Missing, |&x| epc_model::Value::Num(x))
        };
        for &(x, label, y) in cells {
            let mut r = ds.empty_record();
            r.set(AttrId(0), num(x)).unwrap();
            let label = LABELS
                .get(label)
                .map_or(epc_model::Value::Missing, |l| epc_model::Value::cat(*l));
            r.set(AttrId(1), label).unwrap();
            r.set(AttrId(2), num(y)).unwrap();
            ds.push_record(r).unwrap();
        }
        // In-place repairs leave unused labels in the dictionary.
        for &(row, label) in relabel {
            if let Some(l) = LABELS.get(label).filter(|_| row < ds.n_rows()) {
                ds.set_value(row, AttrId(1), epc_model::Value::cat(*l))
                    .unwrap();
            }
        }
        ds
    }

    fn quarantine(n: usize) -> Quarantine {
        let mut q = Quarantine::new();
        for i in 0..n {
            q.push(
                format!("key \"{i}\"\n"),
                Some(i),
                RecordFault::NonFinite {
                    attribute: "x".into(),
                },
            );
        }
        q
    }

    proptest! {
        #[test]
        fn dataset_checkpoints_equal_the_whole_tree_encoding(
            cells in prop::collection::vec((0usize..11, 0usize..7, 0usize..11), 0..25),
            relabel in prop::collection::vec((0usize..25, 0usize..6), 0..5),
            rows in prop::collection::vec(0usize..1000, 0..6),
            faults in 0usize..3,
            eps in 0.0f64..1.0,
        ) {
            let ds = dataset(&cells, &relabel);
            let out = PreprocessOutput {
                dataset: ds.clone(),
                kept_rows: rows.clone(),
                cleaning: CleaningReport { total: cells.len(), ..CleaningReport::default() },
                univariate_flagged: BTreeMap::from([("x".to_owned(), rows.clone())]),
                multivariate_flagged: rows.clone(),
                dbscan_params: (faults > 0).then_some(DbscanConfig { eps, min_points: faults }),
                removed_rows: rows.clone(),
                degraded_rows: rows.clone(),
            };
            let q = quarantine(faults);
            prop_assert_eq!(encode_preprocess(&out, &q), oracle_encode_preprocess(&out, &q));

            let phase = CleanPhase {
                dataset: ds,
                orig_of: rows.clone(),
                input_rows: cells.len() + faults,
                cleaning: CleaningReport::default(),
                degraded_rows: rows.clone(),
                unresolved_rows: rows,
                quarantine: q,
            };
            let text = encode_clean_phase(&phase);
            prop_assert_eq!(&text, &oracle_encode_clean_phase(&phase));
            // And the decoder still reads it back to the same bytes.
            prop_assert_eq!(encode_clean_phase(&decode_clean_phase(&text).unwrap()), text);
        }
    }

    fn sample_analytics() -> AnalyticsOutput {
        AnalyticsOutput {
            feature_names: vec!["a".into(), "b".into()],
            correlation: CorrelationMatrix {
                names: vec!["a".into(), "b".into()],
                values: vec![1.0, f64::NAN, f64::NAN, 1.0],
            },
            eligible: true,
            sse_curve: vec![(2, 10.5), (3, 1.0 / 3.0)],
            chosen_k: 3,
            kmeans: KMeansModel {
                centroids: Matrix::from_vec(vec![0.25, -0.0, 1.0, 2.0, 3.0, 4.0], 3, 2),
                assignments: vec![0, 1, 2, 0],
                sse: 0.1,
                n_iter: 7,
                converged: true,
            },
            feature_rows: vec![0, 2, 3, 5],
            cluster_summaries: vec![ClusterSummary {
                cluster: 0,
                size: 2,
                centroid: vec![0.5, 1.5],
                mean_response: None,
            }],
            discretizers: vec![Discretizer {
                attribute: "a".into(),
                edges: vec![0.5, 1.5],
                labels: vec!["low".into(), "mid".into(), "high".into()],
            }],
            response_discretizer: Discretizer {
                attribute: "eph".into(),
                edges: vec![100.0],
                labels: vec!["low".into(), "high".into()],
            },
            rules: vec![AssociationRule {
                antecedent: vec!["a=low".into()],
                consequent: vec!["eph=low".into()],
                support: 0.5,
                confidence: 1.0,
                lift: 2.0,
                conviction: f64::INFINITY,
            }],
        }
    }

    #[test]
    fn analytics_round_trip_is_exact_and_byte_stable() {
        let out = sample_analytics();
        let text = encode_analytics(&out);
        let back = decode_analytics(&text).unwrap();
        assert_eq!(back.feature_names, out.feature_names);
        assert_eq!(back.chosen_k, 3);
        assert!(back.correlation.values[1].is_nan());
        assert_eq!(back.rules[0].conviction, f64::INFINITY);
        assert_eq!(back.sse_curve, out.sse_curve);
        assert_eq!(back.kmeans.centroids.data(), out.kmeans.centroids.data());
        assert!(back.kmeans.centroids.data()[1].is_sign_negative());
        assert_eq!(back.cluster_summaries[0].mean_response, None);
        // Determinism: re-encoding the rehydrated product is byte-identical.
        assert_eq!(encode_analytics(&back), text);
    }

    #[test]
    fn analytics_decode_rejects_corruption() {
        let good = encode_analytics(&sample_analytics());
        assert!(
            decode_analytics(&good.replace("indice-checkpoint-v1", "indice-checkpoint-v0"))
                .is_err()
        );
        assert!(decode_analytics(&good.replace("\"n_rows\":3", "\"n_rows\":4")).is_err());
        assert!(decode_analytics("{}").is_err());
        assert!(decode_analytics("not json").is_err());
    }
}
