//! Property-based tests for the MAC layer.

use lora_mac::collision::{collides, AirInterval, InterSfPolicy};
use lora_mac::{Deduplicator, DemodulatorBank, Reception};
use lora_phy::SpreadingFactor;
use proptest::prelude::*;

fn any_sf() -> impl Strategy<Value = SpreadingFactor> {
    (7u8..=12).prop_map(|v| SpreadingFactor::from_u8(v).unwrap())
}

proptest! {
    #[test]
    fn overlap_is_symmetric(s1 in 0.0f64..100.0, d1 in 0.001f64..10.0, s2 in 0.0f64..100.0, d2 in 0.001f64..10.0) {
        let a = AirInterval::new(s1, s1 + d1);
        let b = AirInterval::new(s2, s2 + d2);
        prop_assert_eq!(a.overlaps(&b), b.overlaps(&a));
    }

    #[test]
    fn collision_requires_all_three_conditions(
        sf_a in any_sf(), sf_b in any_sf(),
        ch_a in 0usize..8, ch_b in 0usize..8,
        s1 in 0.0f64..10.0, s2 in 0.0f64..10.0,
    ) {
        let a = AirInterval::new(s1, s1 + 1.0);
        let b = AirInterval::new(s2, s2 + 1.0);
        let hit = collides(sf_a, ch_a, &a, sf_b, ch_b, &b);
        if hit {
            prop_assert_eq!(sf_a, sf_b);
            prop_assert_eq!(ch_a, ch_b);
            prop_assert!(a.overlaps(&b));
        }
    }

    #[test]
    fn interference_weight_in_unit_range(v in any_sf(), i in any_sf()) {
        for policy in [InterSfPolicy::Orthogonal, InterSfPolicy::ImperfectOrthogonality] {
            let w = policy.interference_weight(v, i);
            prop_assert!((0.0..=1.0).contains(&w), "{policy:?} {v} {i}: {w}");
        }
    }

    #[test]
    fn demod_bank_never_exceeds_capacity(
        capacity in 1usize..=8,
        receptions in proptest::collection::vec((0.0f64..100.0, 0.001f64..5.0), 1..200),
    ) {
        let mut sorted = receptions;
        sorted.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        let mut bank = DemodulatorBank::with_capacity(capacity);
        for (start, dur) in &sorted {
            let granted_before = bank.busy_at(*start);
            prop_assert!(granted_before <= capacity);
            bank.try_acquire(*start, start + dur);
            prop_assert!(bank.busy_at(*start) <= capacity);
        }
    }

    #[test]
    fn dedup_delivers_each_frame_exactly_once(
        offers in proptest::collection::vec((0u32..8, 0u32..16), 1..300),
    ) {
        let mut dedup = Deduplicator::new();
        let mut seen = std::collections::HashSet::new();
        for (dev, cnt) in offers {
            let outcome = dedup.observe(dev, cnt);
            let first = seen.insert((dev, cnt));
            prop_assert_eq!(outcome == Reception::FirstCopy, first);
        }
        prop_assert_eq!(dedup.delivered(), seen.len() as u64);
    }
}
