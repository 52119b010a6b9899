//! Online updates: a broadcast server whose catalogue changes live.
//!
//! News items are published with tight freshness requirements, served for a
//! while, then expire — without ever rebuilding the whole program. The
//! `OnlineScheduler` keeps the program valid through every add/remove, and
//! compacts (`rebuild_with`) when fragmentation blocks an admission.
//!
//! Run with: `cargo run -p airsched-cli --example online_updates`

use airsched_core::dynamic::OnlineScheduler;
use airsched_core::types::PageId;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 3 channels, 16-slot cycle: room for a mix of breaking news (t = 2),
    // updates (t = 4..8) and background content (t = 16).
    let mut sched = OnlineScheduler::new(3, 16)?;
    let mut next_id = 0u32;
    let mut publish = |sched: &mut OnlineScheduler, t: u64| -> PageId {
        let page = PageId::new(next_id);
        next_id += 1;
        match sched.add_page(page, t) {
            Ok(()) => println!("published {page} (t={t})"),
            Err(_) => {
                // Fragmented: compact together with the newcomer.
                sched
                    .rebuild_with(&[(page, t)])
                    .expect("capacity available after compaction");
                println!("published {page} (t={t}) after compaction");
            }
        }
        page
    };

    println!("-- morning: initial catalogue --");
    let breaking = publish(&mut sched, 2);
    for _ in 0..3 {
        publish(&mut sched, 4);
    }
    for _ in 0..4 {
        publish(&mut sched, 8);
    }
    for _ in 0..6 {
        publish(&mut sched, 16);
    }
    println!(
        "utilization {:.0}%\n{}",
        sched.utilization() * 100.0,
        sched.program().render_grid()
    );

    println!("-- noon: breaking story expires, two updates roll in --");
    sched.remove_page(breaking)?;
    publish(&mut sched, 2);
    publish(&mut sched, 4);
    println!(
        "utilization {:.0}%\n{}",
        sched.utilization() * 100.0,
        sched.program().render_grid()
    );

    // The invariant held throughout: every live page's gaps fit its
    // expected time.
    for (page, t) in sched.pages().iter() {
        let fits = sched.program().cyclic_gaps(page).all(|g| g <= t);
        assert!(fits, "{page} violated t={t}");
    }
    println!(
        "all {} live pages meet their deadlines",
        sched.pages().len()
    );
    Ok(())
}
