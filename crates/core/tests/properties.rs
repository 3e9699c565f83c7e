//! Property tests for the foundation types.

use pdn_core::geom::{Point, TileGrid};
use pdn_core::map::TileMap;
use pdn_core::stats;
use proptest::prelude::*;

proptest! {
    #[test]
    fn tile_of_is_consistent_with_tile_rect(
        rows in 1usize..12,
        cols in 1usize..12,
        fx in 0.0f64..1.0,
        fy in 0.0f64..1.0,
    ) {
        let g = TileGrid::new(rows, cols, 120.0, 80.0);
        let p = Point::new(fx * 119.99, fy * 79.99);
        let t = g.tile_of(p);
        let rect = g.tile_rect(t);
        prop_assert!(rect.contains(p), "point {p:?} outside its tile rect {rect:?}");
    }

    #[test]
    fn tile_centers_map_back_to_their_tiles(rows in 1usize..10, cols in 1usize..10) {
        let g = TileGrid::new(rows, cols, 55.0, 33.0);
        for t in g.tiles() {
            prop_assert_eq!(g.tile_of(g.tile_center(t)), t);
        }
    }

    #[test]
    fn max_assign_is_commutative_and_idempotent(
        vals_a in prop::collection::vec(-5.0f64..5.0, 12),
        vals_b in prop::collection::vec(-5.0f64..5.0, 12),
    ) {
        let a = TileMap::from_vec(3, 4, vals_a).unwrap();
        let b = TileMap::from_vec(3, 4, vals_b).unwrap();
        let mut ab = a.clone();
        ab.max_assign(&b);
        let mut ba = b.clone();
        ba.max_assign(&a);
        prop_assert_eq!(&ab, &ba);
        let mut again = ab.clone();
        again.max_assign(&b);
        prop_assert_eq!(again, ab);
    }

    #[test]
    fn map_add_sub_round_trip(
        vals_a in prop::collection::vec(-10.0f64..10.0, 9),
        vals_b in prop::collection::vec(-10.0f64..10.0, 9),
    ) {
        let a = TileMap::from_vec(3, 3, vals_a).unwrap();
        let b = TileMap::from_vec(3, 3, vals_b).unwrap();
        let back = &(&a + &b) - &b;
        for (x, y) in back.as_slice().iter().zip(a.as_slice()) {
            prop_assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn percentile_is_monotone_and_bounded(
        vals in prop::collection::vec(-100.0f64..100.0, 1..40),
        p1 in 0.0f64..100.0,
        p2 in 0.0f64..100.0,
    ) {
        let (lo, hi) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
        let a = stats::percentile(&vals, lo);
        let b = stats::percentile(&vals, hi);
        prop_assert!(a <= b + 1e-12);
        let min = vals.iter().copied().fold(f64::INFINITY, f64::min);
        let max = vals.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(a >= min - 1e-12 && b <= max + 1e-12);
    }

    #[test]
    fn argsort_sorts(vals in prop::collection::vec(-50.0f64..50.0, 0..30)) {
        let idx = stats::argsort(&vals);
        prop_assert_eq!(idx.len(), vals.len());
        for w in idx.windows(2) {
            prop_assert!(vals[w[0]] <= vals[w[1]]);
        }
    }
}
