//! Swap probe: how many deliveries miss their expected time because the
//! plan changed while the client was waiting.
//!
//! The paper promises every page within `t_i` from any tune-in instant.
//! Each plan the station airs keeps that promise on its own, but a client
//! who subscribed under one plan and is served under the next can wait
//! longer. This probe provokes such swaps with channel failures and
//! restores, plus catalogue churn under the degraded plans:
//!
//! * `Station::new(4, 64)` with the catalogue `t:count` = `4:4, 8:6,
//!   16:9, 32:10` (Theorem 3.1 needs 3 channels, so losing one channel
//!   leaves a valid re-pack);
//! * every slot, one client subscribes to each live page;
//! * at `slot % 29 == 5` the `k`-th live page, `k = (slot * 7919) % len`
//!   in ascending id order (`len` is the catalogue size), expires and a
//!   fresh id is published with the same `t`;
//! * at `slot % 53 == 17` channel `(slot / 53) % 4` fails, and at
//!   `slot % 53 == 40` it is restored;
//! * no fault injector; 20,000 slots.
//!
//! Within a slot the steps run in that order, then the slot is ticked.
//!
//! It prints the late deliveries, split by the channel swap nearest
//! before the delivery that the wait spans: a fail swap or a restore
//! swap. A late wait that spans neither is counted on its own line.
//!
//! Run with: `cargo run --release -p airsched-cli --example swap_probe`

use std::collections::BTreeMap;

use airsched_core::types::{ChannelId, PageId};
use airsched_server::{Station, TickBuf};

const SLOTS: u64 = 20_000;
const CATALOGUE: [(u64, u32); 4] = [(4, 4), (8, 6), (16, 9), (32, 10)];

/// What the last channel swap before a slot was.
#[derive(Debug, Clone, Copy)]
enum Swap {
    Fail,
    Restore,
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut station = Station::new(4, 64)?;
    let mut next_id = 0u32;
    for (t, count) in CATALOGUE {
        for _ in 0..count {
            station.publish(PageId::new(next_id), t)?;
            next_id += 1;
        }
    }
    // Slot of every channel swap, and which kind it was.
    let mut swaps: BTreeMap<u64, Swap> = BTreeMap::new();
    let mut subscribed_at = Vec::new();
    let mut buf = TickBuf::new();
    let (mut delivered, mut late) = (0u64, 0u64);
    let (mut late_fail, mut late_restore, mut late_other) = (0u64, 0u64, 0u64);
    let mut worst_overrun = 0u64;
    for slot in 0..SLOTS {
        let live: Vec<PageId> = station.catalogue().iter().map(|(p, _)| p).collect();
        for page in live {
            let client = station.subscribe(page)?;
            debug_assert_eq!(client.raw(), subscribed_at.len() as u64);
            subscribed_at.push(slot);
        }
        if slot % 29 == 5 {
            let live: Vec<(PageId, u64)> = station.catalogue().iter().collect();
            let k = usize::try_from(slot * 7919)? % live.len();
            let (page, t) = live[k];
            station.expire(page)?;
            station.publish(PageId::new(next_id), t)?;
            next_id += 1;
        }
        let channel = ChannelId::new(u32::try_from((slot / 53) % 4)?);
        if slot % 53 == 17 {
            station.fail_channel(channel);
            swaps.insert(slot, Swap::Fail);
        } else if slot % 53 == 40 {
            station.restore_channel(channel);
            swaps.insert(slot, Swap::Restore);
        }
        station.tick_into(&mut buf);
        for d in buf.deliveries() {
            delivered += 1;
            if d.within_deadline {
                continue;
            }
            late += 1;
            let since = subscribed_at[usize::try_from(d.client.raw())?];
            let t = station.catalogue().get(d.page).unwrap_or(0);
            worst_overrun = worst_overrun.max(d.wait.saturating_sub(t));
            // Clients subscribe before the slot's swap, so a swap in the
            // subscribe slot is spanned too.
            match swaps.range(since..=slot).next_back() {
                Some((_, Swap::Fail)) => late_fail += 1,
                Some((_, Swap::Restore)) => late_restore += 1,
                None => late_other += 1,
            }
        }
    }
    println!("slots: {SLOTS}, channel swaps: {}", swaps.len());
    println!("deliveries: {delivered}");
    #[allow(clippy::cast_precision_loss)]
    let share = 100.0 * late as f64 / delivered.max(1) as f64;
    println!("late: {late} ({share:.2}%), up to {worst_overrun} slot(s) past t");
    println!("  spanning a fail swap: {late_fail}");
    println!("  spanning a restore swap: {late_restore}");
    println!("  spanning no channel swap: {late_other}");
    Ok(())
}
