//! Axis-aligned geographic bounding boxes.

use crate::point::GeoPoint;
use serde::{Deserialize, Serialize};

/// An axis-aligned bounding box in (lat, lon) space.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BoundingBox {
    /// Minimum latitude (south edge).
    pub min_lat: f64,
    /// Minimum longitude (west edge).
    pub min_lon: f64,
    /// Maximum latitude (north edge).
    pub max_lat: f64,
    /// Maximum longitude (east edge).
    pub max_lon: f64,
}

impl BoundingBox {
    /// A box spanning the given corners.
    pub fn new(min_lat: f64, min_lon: f64, max_lat: f64, max_lon: f64) -> Self {
        debug_assert!(min_lat <= max_lat && min_lon <= max_lon);
        BoundingBox {
            min_lat,
            min_lon,
            max_lat,
            max_lon,
        }
    }

    /// The tight box around a non-empty point set; `None` when empty.
    pub fn from_points(points: &[GeoPoint]) -> Option<Self> {
        let first = points.first()?;
        let mut b = BoundingBox {
            min_lat: first.lat,
            min_lon: first.lon,
            max_lat: first.lat,
            max_lon: first.lon,
        };
        for p in &points[1..] {
            b.expand_to(p);
        }
        Some(b)
    }

    /// Grows the box to include `p`.
    pub fn expand_to(&mut self, p: &GeoPoint) {
        self.min_lat = self.min_lat.min(p.lat);
        self.min_lon = self.min_lon.min(p.lon);
        self.max_lat = self.max_lat.max(p.lat);
        self.max_lon = self.max_lon.max(p.lon);
    }

    /// `true` when `p` lies inside the box (edges inclusive).
    pub fn contains(&self, p: &GeoPoint) -> bool {
        p.lat >= self.min_lat
            && p.lat <= self.max_lat
            && p.lon >= self.min_lon
            && p.lon <= self.max_lon
    }

    /// `true` when the two boxes overlap (edges inclusive).
    pub fn intersects(&self, other: &BoundingBox) -> bool {
        self.min_lat <= other.max_lat
            && self.max_lat >= other.min_lat
            && self.min_lon <= other.max_lon
            && self.max_lon >= other.min_lon
    }

    /// The box center.
    pub fn center(&self) -> GeoPoint {
        GeoPoint {
            lat: (self.min_lat + self.max_lat) / 2.0,
            lon: (self.min_lon + self.max_lon) / 2.0,
        }
    }

    /// Height in latitude degrees.
    pub fn lat_span(&self) -> f64 {
        self.max_lat - self.min_lat
    }

    /// Width in longitude degrees.
    pub fn lon_span(&self) -> f64 {
        self.max_lon - self.min_lon
    }

    /// A copy grown by `margin` degrees on every side (useful to give maps
    /// a visual border).
    pub fn with_margin(&self, margin: f64) -> BoundingBox {
        BoundingBox {
            min_lat: self.min_lat - margin,
            min_lon: self.min_lon - margin,
            max_lat: self.max_lat + margin,
            max_lon: self.max_lon + margin,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_box() -> BoundingBox {
        BoundingBox::new(45.0, 7.6, 45.1, 7.8)
    }

    #[test]
    fn contains_and_edges() {
        let b = sample_box();
        assert!(b.contains(&GeoPoint::new(45.05, 7.7)));
        assert!(b.contains(&GeoPoint::new(45.0, 7.6)), "edges inclusive");
        assert!(b.contains(&GeoPoint::new(45.1, 7.8)));
        assert!(!b.contains(&GeoPoint::new(44.99, 7.7)));
        assert!(!b.contains(&GeoPoint::new(45.05, 7.81)));
    }

    #[test]
    fn from_points_is_tight() {
        let pts = vec![
            GeoPoint::new(45.01, 7.65),
            GeoPoint::new(45.09, 7.71),
            GeoPoint::new(45.05, 7.60),
        ];
        let b = BoundingBox::from_points(&pts).unwrap();
        assert_eq!(b.min_lat, 45.01);
        assert_eq!(b.max_lat, 45.09);
        assert_eq!(b.min_lon, 7.60);
        assert_eq!(b.max_lon, 7.71);
        assert_eq!(BoundingBox::from_points(&[]), None);
        for p in &pts {
            assert!(b.contains(p));
        }
    }

    #[test]
    fn intersection_cases() {
        let b = sample_box();
        let overlapping = BoundingBox::new(45.05, 7.7, 45.2, 7.9);
        let disjoint = BoundingBox::new(46.0, 8.0, 46.1, 8.1);
        let touching = BoundingBox::new(45.1, 7.8, 45.2, 7.9);
        assert!(b.intersects(&overlapping));
        assert!(overlapping.intersects(&b));
        assert!(!b.intersects(&disjoint));
        assert!(b.intersects(&touching), "shared edge counts");
    }

    #[test]
    fn center_and_spans() {
        let b = sample_box();
        let c = b.center();
        assert!((c.lat - 45.05).abs() < 1e-12);
        assert!((c.lon - 7.7).abs() < 1e-12);
        assert!((b.lat_span() - 0.1).abs() < 1e-12);
        assert!((b.lon_span() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn margin_grows_box() {
        let b = sample_box().with_margin(0.01);
        assert!(b.contains(&GeoPoint::new(44.995, 7.595)));
    }
}
