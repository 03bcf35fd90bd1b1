//! Network resource accounting: global buses and per-node ports.
//!
//! Dimemas bounds network concurrency two ways: a global bus count (how
//! many messages may be in flight anywhere in the network — the knob
//! Table I calibrates per application) and per-node input/output port
//! counts (each processor's injection/extraction concurrency). A
//! transfer must hold one unit of all three (sender output port,
//! receiver input port, one bus) for its whole duration.
//!
//! Releases are checked: releasing more than was acquired means the
//! engine's accounting is corrupt, and that is reported as a hard
//! error in every build profile (not just a `debug_assert!`), surfacing
//! through the replay error path as
//! [`SimError::Accounting`](crate::replay::SimError::Accounting).

/// Resource pool for one simulation.
#[derive(Debug, Clone)]
pub struct Resources {
    bus_cap: u32,
    bus_used: u32,
    out_cap: u32,
    in_cap: u32,
    out_used: Vec<u32>,
    in_used: Vec<u32>,
    wan_cap: u32,
    wan_used: u32,
    ports_busy: u32,
}

impl Resources {
    /// `buses == 0` means unlimited buses.
    pub fn new(nranks: usize, buses: u32, input_ports: u32, output_ports: u32) -> Resources {
        Resources::with_wan(nranks, buses, input_ports, output_ports, 0)
    }

    /// Pool with an inter-machine link limit (`wan_links == 0` means
    /// unlimited).
    pub fn with_wan(
        nranks: usize,
        buses: u32,
        input_ports: u32,
        output_ports: u32,
        wan_links: u32,
    ) -> Resources {
        assert!(input_ports > 0 && output_ports > 0, "ports must be >= 1");
        Resources {
            bus_cap: buses,
            bus_used: 0,
            out_cap: output_ports,
            in_cap: input_ports,
            out_used: vec![0; nranks],
            in_used: vec![0; nranks],
            wan_cap: wan_links,
            wan_used: 0,
            ports_busy: 0,
        }
    }

    /// Acquire (sender out port, receiver in port, one WAN link).
    pub fn try_acquire_wan(&mut self, src: usize, dst: usize) -> bool {
        // single read per counter: check and increment in one pass
        // (called once per grant attempt)
        let (out, inp) = (self.out_used[src], self.in_used[dst]);
        if (self.wan_cap != 0 && self.wan_used >= self.wan_cap)
            || out >= self.out_cap
            || inp >= self.in_cap
        {
            return false;
        }
        self.wan_used += 1;
        self.out_used[src] = out + 1;
        self.in_used[dst] = inp + 1;
        self.ports_busy += 2;
        true
    }

    /// Release the triple acquired by [`Resources::try_acquire_wan`].
    /// Errors on underflow (a release without a matching acquire).
    pub fn release_wan(&mut self, src: usize, dst: usize) -> Result<(), String> {
        if self.wan_used == 0 {
            return Err(format!("wan release underflow ({src} -> {dst})"));
        }
        self.release_ports(src, dst)?;
        self.wan_used -= 1;
        Ok(())
    }

    /// Atomically acquire (sender out port, receiver in port, one bus).
    /// Returns `false` (and acquires nothing) if any is exhausted.
    pub fn try_acquire(&mut self, src: usize, dst: usize) -> bool {
        // single read per counter: check and increment in one pass
        // (called once per grant attempt)
        let (out, inp) = (self.out_used[src], self.in_used[dst]);
        if (self.bus_cap != 0 && self.bus_used >= self.bus_cap)
            || out >= self.out_cap
            || inp >= self.in_cap
        {
            return false;
        }
        self.bus_used += 1;
        self.out_used[src] = out + 1;
        self.in_used[dst] = inp + 1;
        self.ports_busy += 2;
        true
    }

    /// Release the triple acquired by [`Resources::try_acquire`].
    /// Errors on underflow (a release without a matching acquire).
    pub fn release(&mut self, src: usize, dst: usize) -> Result<(), String> {
        if self.bus_used == 0 {
            return Err(format!("bus release underflow ({src} -> {dst})"));
        }
        self.release_ports(src, dst)?;
        self.bus_used -= 1;
        Ok(())
    }

    /// Release just the port pair (shared by the bus and WAN paths).
    fn release_ports(&mut self, src: usize, dst: usize) -> Result<(), String> {
        if self.out_used[src] == 0 {
            return Err(format!("out port release underflow at endpoint {src}"));
        }
        if self.in_used[dst] == 0 {
            return Err(format!("in port release underflow at endpoint {dst}"));
        }
        self.out_used[src] -= 1;
        self.in_used[dst] -= 1;
        self.ports_busy -= 2;
        Ok(())
    }

    /// Whether the bus count is bounded (`buses != 0`).
    pub fn bus_capped(&self) -> bool {
        self.bus_cap != 0
    }

    /// Whether every bus is in use (never, when unbounded).
    pub fn bus_full(&self) -> bool {
        self.bus_cap != 0 && self.bus_used >= self.bus_cap
    }

    /// Whether the WAN link count is bounded (`wan_links != 0`).
    pub fn wan_capped(&self) -> bool {
        self.wan_cap != 0
    }

    /// Whether every WAN link is in use (never, when unbounded).
    pub fn wan_full(&self) -> bool {
        self.wan_cap != 0 && self.wan_used >= self.wan_cap
    }

    /// Whether every output port of `src` is in use.
    pub fn out_full(&self, src: usize) -> bool {
        self.out_used[src] >= self.out_cap
    }

    /// Whether every input port of `dst` is in use.
    pub fn in_full(&self, dst: usize) -> bool {
        self.in_used[dst] >= self.in_cap
    }

    /// Buses currently in use (for occupancy statistics).
    pub fn buses_in_use(&self) -> u32 {
        self.bus_used
    }

    /// Port units currently held across all endpoints (each in-flight
    /// transfer holds one output and one input port).
    pub fn ports_in_use(&self) -> u32 {
        self.ports_busy
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bus_limit_enforced() {
        let mut r = Resources::new(4, 2, 4, 4);
        assert!(r.try_acquire(0, 1));
        assert!(r.try_acquire(2, 3));
        // third concurrent transfer exceeds the 2-bus limit
        assert!(!r.try_acquire(1, 0));
        r.release(0, 1).unwrap();
        assert!(r.try_acquire(1, 0));
    }

    #[test]
    fn zero_buses_means_unlimited() {
        let mut r = Resources::new(8, 0, 8, 8);
        for i in 0..4 {
            assert!(r.try_acquire(i, i + 4));
        }
        assert_eq!(r.buses_in_use(), 4);
    }

    #[test]
    fn port_limits_enforced() {
        let mut r = Resources::new(4, 0, 1, 1);
        assert!(r.try_acquire(0, 1));
        // node 0's single output port is busy
        assert!(!r.try_acquire(0, 2));
        // node 1's single input port is busy
        assert!(!r.try_acquire(2, 1));
        // unrelated pair is fine
        assert!(r.try_acquire(2, 3));
        r.release(0, 1).unwrap();
        assert!(r.try_acquire(0, 2));
    }

    #[test]
    fn failed_acquire_acquires_nothing() {
        let mut r = Resources::new(2, 1, 1, 1);
        assert!(r.try_acquire(0, 1));
        assert!(!r.try_acquire(1, 0)); // bus exhausted
        r.release(0, 1).unwrap();
        // if the failed acquire had leaked anything this would fail
        assert!(r.try_acquire(1, 0));
        r.release(1, 0).unwrap();
        assert_eq!(r.buses_in_use(), 0);
    }

    #[test]
    fn saturation_predicates_track_acquires() {
        let unbounded = Resources::new(2, 0, 1, 1);
        assert!(!unbounded.bus_capped() && !unbounded.bus_full());
        assert!(!unbounded.wan_capped() && !unbounded.wan_full());
        let mut r = Resources::with_wan(3, 1, 1, 1, 1);
        assert!(r.bus_capped() && r.wan_capped());
        assert!(r.try_acquire(0, 1));
        assert!(r.bus_full() && r.out_full(0) && r.in_full(1));
        assert!(!r.wan_full() && !r.out_full(1) && !r.in_full(0));
        assert!(r.try_acquire_wan(1, 2));
        assert!(r.wan_full() && r.out_full(1) && r.in_full(2));
        r.release(0, 1).unwrap();
        assert!(!r.bus_full() && !r.out_full(0) && !r.in_full(1));
    }

    #[test]
    fn release_underflow_is_a_hard_error() {
        let mut r = Resources::new(2, 0, 1, 1);
        assert!(r.release(0, 1).is_err(), "nothing acquired yet");
        assert!(r.release_wan(0, 1).is_err());
        assert!(r.try_acquire(0, 1));
        // releasing the wrong endpoint pair underflows that endpoint
        let err = r.release(1, 0).unwrap_err();
        assert!(err.contains("underflow"), "{err}");
        // the correct release still succeeds afterwards
        r.release(0, 1).unwrap();
        assert!(r.release(0, 1).is_err(), "double release");
    }
}
