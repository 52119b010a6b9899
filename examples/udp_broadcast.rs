//! Broadcast over a real socket: the frame stream transmitted via UDP on
//! loopback, received and decoded by a client that wants a few pages.
//!
//! The transmitter thread plays the schedule in (accelerated) real time,
//! one datagram per channel per slot, each page carrying its own name as
//! its payload (`DebugPayloads`: page 4 airs `p4` every time it airs);
//! the receiver listens, verifies checksums, and reports when its
//! want-set is satisfied — demonstrating `airsched-proto` end to end over
//! an actual network path.
//!
//! Run with: `cargo run -p airsched-cli --example udp_broadcast`

use std::net::UdpSocket;
use std::time::Duration;

use airsched_core::group::GroupLadder;
use airsched_core::susc;
use airsched_core::types::PageId;
use airsched_proto::frame::Frame;
use airsched_proto::receiver::Receiver;
use airsched_proto::transmitter::{DebugPayloads, FrameStream};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let ladder = GroupLadder::new(vec![(2, 3), (4, 5), (8, 3)])?;
    let program = susc::schedule(&ladder, 4)?;
    println!(
        "transmitting {} channels x {}-slot cycle over UDP loopback",
        program.channels(),
        program.cycle_len()
    );

    // Receiver socket on an ephemeral loopback port.
    let rx_socket = UdpSocket::bind("127.0.0.1:0")?;
    rx_socket.set_read_timeout(Some(Duration::from_millis(500)))?;
    let addr = rx_socket.local_addr()?;

    // Transmitter: two full cycles, 1 ms per slot.
    let tx_program = program.clone();
    let tx = std::thread::spawn(move || -> std::io::Result<u64> {
        let socket = UdpSocket::bind("127.0.0.1:0")?;
        let slots = tx_program.cycle_len() * 2;
        let frames = slots * u64::from(tx_program.channels());
        let mut sent = 0u64;
        let mut last_slot = u64::MAX;
        for frame in FrameStream::new(&tx_program, DebugPayloads).take(frames as usize) {
            if frame.slot_time != last_slot {
                last_slot = frame.slot_time;
                std::thread::sleep(Duration::from_millis(1));
            }
            socket.send_to(&frame.encode(), addr)?;
            sent += 1;
        }
        Ok(sent)
    });

    // Client: wants one page from each group.
    let mut rx = Receiver::new([PageId::new(0), PageId::new(4), PageId::new(9)]);
    let mut buf = [0u8; 2048];
    while !rx.is_satisfied() {
        let (len, _) = rx_socket.recv_from(&mut buf)?;
        match Frame::decode(&buf[..len]) {
            Ok(frame) => {
                if let Some(reception) = rx.consume(&frame) {
                    println!(
                        "received {} at slot {} (payload {:?})",
                        reception.page,
                        reception.slot_time,
                        String::from_utf8_lossy(&reception.payload)
                    );
                }
            }
            Err(e) => eprintln!("corrupt datagram: {e}"),
        }
    }

    let sent = tx.join().expect("transmitter thread")?;
    let stats = rx.stats();
    println!(
        "satisfied after {} frames ({} hits); transmitter sent {} datagrams",
        stats.frames, stats.hits, sent
    );
    Ok(())
}
