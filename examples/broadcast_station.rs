//! A day in the life of a broadcast station.
//!
//! Runs the full `airsched-server` stack: a catalogue with tiered
//! freshness, a stream of subscribing clients, mid-day publishes and
//! expiries, and the live statistics an operator would watch — all on an
//! always-valid schedule.
//!
//! Run with: `cargo run -p airsched-cli --example broadcast_station`

use airsched_core::types::PageId;
use airsched_server::Station;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 3 transmitters, 16-slot schedule.
    let mut station = Station::new(3, 16)?;

    // Opening catalogue: one breaking item, a few updates, background data.
    station.publish(PageId::new(0), 2)?;
    for i in 1..=4 {
        station.publish(PageId::new(i), 4)?;
    }
    for i in 5..=9 {
        station.publish(PageId::new(i), 8)?;
    }
    for i in 10..=15 {
        station.publish(PageId::new(i), 16)?;
    }
    println!(
        "catalogue: {} pages on {} channels",
        station.catalogue().len(),
        3
    );

    // Clients subscribe throughout the morning (a deterministic pattern
    // standing in for arrivals).
    for step in 0..64u32 {
        let page = PageId::new(step % 16);
        station.subscribe(page)?;
        let tick = station.tick();
        for d in &tick.deliveries {
            assert!(d.within_deadline, "late delivery: {d:?}");
        }
    }
    // Drain.
    station.run(16);
    let morning = station.stats();
    println!(
        "morning: {} deliveries, mean wait {:.2} slots, on-time {:.0}%",
        morning.delivered,
        morning.mean_wait(),
        morning.on_time_rate() * 100.0
    );

    // Midday reshuffle: the breaking item expires, two new urgent ones land.
    station.expire(PageId::new(0))?;
    station.publish(PageId::new(100), 2)?;
    station.publish(PageId::new(101), 2)?;
    println!(
        "midday reshuffle done; catalogue now {} pages",
        station.catalogue().len()
    );

    for step in 0..64u32 {
        let page = if step % 4 == 0 {
            PageId::new(100 + (step / 4) % 2)
        } else {
            PageId::new(1 + step % 15)
        };
        if station.catalogue().contains(page) {
            station.subscribe(page)?;
        }
        station.tick();
    }
    station.run(16);

    let evening = station.stats();
    println!(
        "close of day: {} slots aired, {} deliveries, mean wait {:.2} \
         slots, on-time {:.0}%, {} still waiting",
        evening.slots_elapsed,
        evening.delivered,
        evening.mean_wait(),
        evening.on_time_rate() * 100.0,
        evening.waiting
    );
    Ok(())
}
