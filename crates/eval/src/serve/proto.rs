//! Typed request/response bodies for `pdn serve`.
//!
//! Requests carry a test vector in the same CSV format every other tool in
//! the workspace reads and writes (`pdn export-vector`, `pdn predict
//! --vector`), so artifacts flow between the offline CLI and the daemon
//! unchanged. Responses are JSON with full-precision `f64` fields: Rust's
//! shortest-round-trip float formatting means a client parsing the decimal
//! text recovers bitwise-identical values, which the end-to-end tests rely
//! on to compare served predictions against offline `Predictor::predict`.

use pdn_core::map::TileMap;
use pdn_core::telemetry::write_json_str;
use pdn_core::units::Seconds;
use pdn_sim::transient::check_time_step;
use pdn_vectors::io::read_csv;
use pdn_vectors::vector::TestVector;
use std::fmt::Write as _;

/// A parsed `/predict` or `/simulate` request: one test vector.
#[derive(Debug, Clone)]
pub struct VectorRequest {
    /// The query vector (per-load current waveforms).
    pub vector: TestVector,
}

impl VectorRequest {
    /// Parses a request body (vector CSV) and validates it against the
    /// served design's load count and time step, so mismatches answer as
    /// HTTP 400 instead of panicking inside the predictor or the simulator,
    /// or being simulated on the wrong time axis.
    ///
    /// # Errors
    ///
    /// A human-readable reason suitable for the error response body.
    pub fn parse(
        body: &[u8],
        expected_loads: usize,
        time_step: Seconds,
    ) -> Result<VectorRequest, String> {
        let vector = read_csv(body).map_err(|e| format!("bad vector CSV: {e}"))?;
        if vector.load_count() != expected_loads {
            return Err(format!(
                "vector has {} load columns but the served design has {} loads",
                vector.load_count(),
                expected_loads
            ));
        }
        if vector.step_count() == 0 {
            return Err("vector has no time steps".to_string());
        }
        check_time_step(time_step, &vector)
            .map_err(|e| format!("{e} (set by the CSV's `dt_ps=` header; 1 ps without one)"))?;
        Ok(VectorRequest { vector })
    }
}

/// One noise-map answer (`/predict` and `/simulate` share the schema; the
/// `kind` field tells them apart, and simulation fills the `sim_*` extras).
#[derive(Debug, Clone)]
pub struct MapResponse {
    /// `"predict"` or `"simulate"`.
    pub kind: &'static str,
    /// Tile-grid rows.
    pub rows: usize,
    /// Tile-grid columns.
    pub cols: usize,
    /// Row-major worst-case noise map in volts.
    pub map: Vec<f64>,
    /// Largest map value (volts).
    pub max_noise: f64,
    /// Mean map value (volts).
    pub mean_noise: f64,
    /// The design's hotspot threshold (volts) used for the scores below.
    pub hotspot_threshold: f64,
    /// Tiles at or above the threshold.
    pub hotspot_count: usize,
    /// `hotspot_count / (rows * cols)`.
    pub hotspot_ratio: f64,
    /// The per-request ID minted at accept time (also echoed in the
    /// `x-pdn-request-id` response header); empty when unset.
    pub request_id: String,
    /// How many requests shared this request's inference/simulation batch.
    pub batch_width: usize,
    /// Microseconds the request waited in the batcher queue.
    pub queue_us: u64,
    /// Microseconds of inference/simulation, shared by the whole batch.
    pub compute_us: u64,
    /// Simulator wall clock for this vector, its share of a lockstep batch
    /// (simulate only).
    pub sim_elapsed_us: Option<u64>,
    /// Transient steps marched (simulate only).
    pub sim_steps: Option<usize>,
}

impl MapResponse {
    /// Builds the map-derived part of a response; the batching fields start
    /// zeroed and are filled by the batcher.
    pub fn from_map(kind: &'static str, map: &TileMap, hotspot_threshold: f64) -> MapResponse {
        let (rows, cols) = map.shape();
        let values = map.as_slice();
        let tiles = values.len().max(1);
        let hotspot_count = map.count_above(hotspot_threshold);
        MapResponse {
            kind,
            rows,
            cols,
            map: values.to_vec(),
            max_noise: map.max(),
            mean_noise: values.iter().sum::<f64>() / tiles as f64,
            hotspot_threshold,
            hotspot_count,
            hotspot_ratio: hotspot_count as f64 / tiles as f64,
            request_id: String::new(),
            batch_width: 0,
            queue_us: 0,
            compute_us: 0,
            sim_elapsed_us: None,
            sim_steps: None,
        }
    }

    /// Renders the response as one JSON object.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(128 + self.map.len() * 12);
        let _ = write!(
            out,
            "{{\"kind\":\"{}\",\"rows\":{},\"cols\":{},\"max_noise\":",
            self.kind, self.rows, self.cols
        );
        push_f64(&mut out, self.max_noise);
        out.push_str(",\"mean_noise\":");
        push_f64(&mut out, self.mean_noise);
        out.push_str(",\"hotspot_threshold\":");
        push_f64(&mut out, self.hotspot_threshold);
        let _ = write!(
            out,
            ",\"hotspot_count\":{},\"hotspot_ratio\":",
            self.hotspot_count
        );
        push_f64(&mut out, self.hotspot_ratio);
        if !self.request_id.is_empty() {
            out.push_str(",\"request_id\":");
            let _ = write_json_str(&mut out, &self.request_id);
        }
        let _ = write!(
            out,
            ",\"batch_width\":{},\"queue_us\":{},\"compute_us\":{}",
            self.batch_width, self.queue_us, self.compute_us
        );
        if let Some(us) = self.sim_elapsed_us {
            let _ = write!(out, ",\"sim_elapsed_us\":{us}");
        }
        if let Some(steps) = self.sim_steps {
            let _ = write!(out, ",\"sim_steps\":{steps}");
        }
        out.push_str(",\"map\":[");
        for (i, v) in self.map.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_f64(&mut out, *v);
        }
        out.push_str("]}");
        out
    }
}

/// Renders `v` as a JSON number. Rust's `{}` float formatting emits the
/// shortest decimal that parses back to the identical bits, so responses
/// are lossless; non-finite values (JSON has no literal for them) become
/// `null`.
fn push_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

/// Renders an error body: `{"error":"..."}`.
pub fn error_json(message: &str) -> String {
    let mut out = String::with_capacity(message.len() + 16);
    out.push_str("{\"error\":");
    let _ = write_json_str(&mut out, message);
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jsonl;

    #[test]
    fn vector_request_round_trips_csv() {
        let vector = TestVector::from_rows(
            vec![vec![0.1, 0.2], vec![0.3, 0.4]],
            Seconds(1e-11),
        );
        let mut csv = Vec::new();
        pdn_vectors::io::write_csv(&vector, &mut csv).unwrap();
        let dt = Seconds(1e-11);
        let parsed = VectorRequest::parse(&csv, 2, dt).unwrap();
        assert_eq!(parsed.vector, vector);
        let err = VectorRequest::parse(&csv, 3, dt).unwrap_err();
        assert!(err.contains("load columns"), "{err}");
        assert!(VectorRequest::parse(b"not a csv", 2, dt).is_err());
    }

    #[test]
    fn vector_request_at_another_time_step_is_rejected() {
        // /predict and /simulate answer a parse error with 400.
        let dt = Seconds::from_picos(10.0);
        let err = VectorRequest::parse(b"# pdn-wnv test-vector, dt_ps=2.5\n0.1,0.2\n", 2, dt)
            .unwrap_err();
        assert!(err.contains("2.5 ps") && err.contains("10 ps") && err.contains("dt_ps="), "{err}");
        let err = VectorRequest::parse(b"0.1,0.2\n", 2, dt).unwrap_err();
        assert!(err.contains("is 1 ps"), "{err}");
        assert!(VectorRequest::parse(b"# pdn-wnv test-vector, dt_ps=10\n0.1,0.2\n", 2, dt).is_ok());
    }

    #[test]
    fn map_response_json_is_parseable_and_lossless() {
        let map = TileMap::from_vec(2, 2, vec![0.1, 0.25, 1.0 / 3.0, 0.05]).unwrap();
        let mut resp = MapResponse::from_map("predict", &map, 0.2);
        resp.request_id = "a1b2-7".to_string();
        resp.batch_width = 3;
        resp.queue_us = 17;
        resp.compute_us = 2100;
        let json = resp.to_json();
        let parsed = jsonl::parse(&json).unwrap();
        assert_eq!(parsed.get("kind").unwrap().as_str(), Some("predict"));
        assert_eq!(parsed.get("request_id").unwrap().as_str(), Some("a1b2-7"));
        assert_eq!(parsed.get("rows").unwrap().as_u64(), Some(2));
        assert_eq!(parsed.get("hotspot_count").unwrap().as_u64(), Some(2));
        assert_eq!(parsed.get("batch_width").unwrap().as_u64(), Some(3));
        let arr = parsed.get("map").unwrap().as_array().unwrap();
        assert_eq!(arr.len(), 4);
        for (got, want) in arr.iter().zip(map.as_slice()) {
            assert_eq!(got.as_f64().unwrap().to_bits(), want.to_bits(), "lossless float");
        }
    }

    #[test]
    fn error_json_escapes() {
        let body = error_json("bad \"vector\"\nline");
        let parsed = jsonl::parse(&body).unwrap();
        assert_eq!(parsed.get("error").unwrap().as_str(), Some("bad \"vector\"\nline"));
    }
}
