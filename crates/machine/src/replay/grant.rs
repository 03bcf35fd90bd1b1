//! Resource grants: when a pending transfer acquires its (output port,
//! input port, bus or WAN link) triple.
//!
//! The grant order is defined by the naive algorithm: after every send,
//! rendezvous match and release, scan every pending message in
//! initiation order and grant each one whose resources are free (an
//! unmatched rendezvous message is skipped). That scan costs O(pending)
//! per call, which made weak scaling quadratic; it survives only as the
//! oracle behind [`simulate_reference`](super::simulate_reference).
//!
//! The engine computes the same grants from per-resource wait lists.
//! Everything rests on one invariant: *after every grant pass no
//! pending message is grantable*, and between passes resources only get
//! scarcer. A failed attempt has no side effects, so skipping a message
//! the scan would have tried and failed is exact. Three consequences:
//!
//! * **Send and rendezvous match.** Only the message just initiated or
//!   just paired can have become grantable, so it is tried alone. If it
//!   fails it joins the wait lists of the resources it needs.
//! * **Release of `(src, dst)`.** A message becomes grantable only if
//!   every resource it lacked was released: it waits on `src`'s output
//!   port or `dst`'s input port, or it lacked only the bus (or WAN)
//!   pool, which is possible only if that pool was saturated before the
//!   release. Those lists are walked merged in initiation order, and a
//!   list stops as soon as its own resource is saturated again.
//! * **Ties.** Lists are keyed on the initiation sequence number, not
//!   the message id, because summary mode recycles message slots.
//!
//! Lists are lazy: a message granted through one list stays in its
//! other lists until a walk or a growing push drops it as stale.

use super::{Engine, Link, Msg, MsgState};
use crate::probe::ProbeSink;
use crate::resources::Resources;
use crate::time::Time;
use crate::SimError;
use ovlp_trace::record::SendMode;
use std::collections::VecDeque;

/// Messages waiting on one resource, as `(seq, mid)` in increasing
/// initiation sequence `seq`. Entries whose message was granted through
/// another list, or whose slot was recycled, are stale.
#[derive(Default)]
pub(super) struct WaitList(VecDeque<(u64, usize)>);

impl WaitList {
    /// Insert in sequence order. New messages append; only a rendezvous
    /// message paired after later sends went waiting lands mid-list.
    /// Before the backing buffer grows, stale entries are dropped, so a
    /// list holds at most about twice its live entries.
    fn insert(&mut self, seq: u64, mid: usize, msgs: &[Msg]) {
        let q = &mut self.0;
        if q.len() == q.capacity() && q.len() >= 8 {
            q.retain(|&(s, m)| waiting(msgs, s, m));
            if q.len() > q.capacity() / 2 {
                q.reserve(q.capacity());
            }
        }
        match q.back() {
            Some(&(last, _)) if last > seq => {
                let at = q.partition_point(|&(s, _)| s < seq);
                q.insert(at, (seq, mid));
            }
            _ => q.push_back((seq, mid)),
        }
    }
}

/// Whether wait-list entry `(seq, mid)` still names a waiting message.
fn waiting(msgs: &[Msg], seq: u64, mid: usize) -> bool {
    msgs[mid].seq == seq && msgs[mid].state == MsgState::Pending
}

/// The wait lists of one replay.
pub(super) struct WaitLists {
    /// Per rank: messages from that rank waiting (also) on its output
    /// ports.
    out: Vec<WaitList>,
    /// Per rank: messages to that rank waiting (also) on its input
    /// ports.
    inp: Vec<WaitList>,
    /// Machine-local network messages, when the bus count is capped.
    net: WaitList,
    /// Inter-machine messages, when the WAN link count is capped.
    wan: WaitList,
}

impl WaitLists {
    pub(super) fn new(nranks: usize) -> WaitLists {
        WaitLists {
            out: (0..nranks).map(|_| WaitList::default()).collect(),
            inp: (0..nranks).map(|_| WaitList::default()).collect(),
            net: WaitList::default(),
            wan: WaitList::default(),
        }
    }
}

/// The shared pool a network link class draws from.
#[derive(Clone, Copy)]
enum Pool {
    Bus,
    Wan,
}

impl Pool {
    fn of(link: Link) -> Option<Pool> {
        match link {
            Link::Intra => None,
            Link::Net => Some(Pool::Bus),
            Link::Wan => Some(Pool::Wan),
        }
    }

    fn full(self, r: &Resources) -> bool {
        match self {
            Pool::Bus => r.bus_full(),
            Pool::Wan => r.wan_full(),
        }
    }
}

impl<'a, P: ProbeSink> Engine<'a, P> {
    /// Message `mid` was just initiated, or a rendezvous message was
    /// just paired: by the invariant it is the only candidate, so try
    /// it alone and queue it on the resources it needs if that fails.
    /// An unmatched rendezvous message is not a candidate yet.
    pub(super) fn offer(&mut self, mid: usize, now: Time) -> Result<(), SimError> {
        if self.reference {
            return self.scan_all(now);
        }
        let m = &self.msgs[mid];
        if m.mode == SendMode::Rendezvous && m.paired.is_none() {
            return Ok(());
        }
        let (seq, src, dst, link) = (m.seq, m.src, m.dst, m.link);
        if self.try_grant(mid, now)? {
            return Ok(());
        }
        let (msgs, w) = (&self.msgs[..], &mut self.waits);
        w.out[src].insert(seq, mid, msgs);
        w.inp[dst].insert(seq, mid, msgs);
        match Pool::of(link) {
            Some(Pool::Bus) if self.resources.bus_capped() => w.net.insert(seq, mid, msgs),
            Some(Pool::Wan) if self.resources.wan_capped() => w.wan.insert(seq, mid, msgs),
            _ => {}
        }
        Ok(())
    }

    /// Release the resources message `mid` held and grant, in
    /// initiation order, every waiting message the release makes
    /// grantable.
    pub(super) fn release(&mut self, mid: usize, now: Time) -> Result<(), SimError> {
        let (src, dst, link) = {
            let m = &self.msgs[mid];
            (m.src, m.dst, m.link)
        };
        let pool = Pool::of(link);
        let pool_was_full = pool.is_some_and(|p| p.full(&self.resources));
        match link {
            Link::Intra => Ok(()),
            Link::Net => self.resources.release(src, dst),
            Link::Wan => self.resources.release_wan(src, dst),
        }
        .map_err(SimError::Accounting)?;
        if P::ENABLED && link != Link::Intra {
            self.in_flight -= 1;
            self.probe.on_transfer_done(
                now,
                self.in_flight,
                self.resources.buses_in_use(),
                self.resources.ports_in_use(),
            );
        }
        if self.reference {
            return self.scan_all(now);
        }
        match pool {
            None => Ok(()), // intra-node transfers hold nothing
            Some(pool) => self.wake(src, dst, pool_was_full.then_some(pool), now),
        }
    }

    /// Walk the output-port list of `src`, the input-port list of `dst`
    /// and, if given, the pool list, merged in initiation order, trying
    /// each waiting message once. Failed candidates stay queued; stale
    /// and granted entries are dropped.
    fn wake(
        &mut self,
        src: usize,
        dst: usize,
        pool: Option<Pool>,
        now: Time,
    ) -> Result<(), SimError> {
        if pool.is_none() && self.waits.out[src].0.is_empty() && self.waits.inp[dst].0.is_empty() {
            return Ok(()); // the common case: nobody waits
        }
        let mut lists = [
            std::mem::take(&mut self.waits.out[src]),
            std::mem::take(&mut self.waits.inp[dst]),
            match pool {
                Some(Pool::Bus) => std::mem::take(&mut self.waits.net),
                Some(Pool::Wan) => std::mem::take(&mut self.waits.wan),
                None => WaitList::default(),
            },
        ];
        // per list: entries before `read` were visited; the survivors
        // among them are compacted into `..write`
        let mut read = [0usize; 3];
        let mut write = [0usize; 3];
        let outcome = loop {
            let mut next: Option<(u64, usize)> = None;
            for k in 0..3 {
                let saturated = match k {
                    0 => self.resources.out_full(src),
                    1 => self.resources.in_full(dst),
                    _ => pool.is_some_and(|p| p.full(&self.resources)),
                };
                if saturated {
                    continue; // every remaining entry needs this resource
                }
                let q = &lists[k].0;
                while let Some(&(seq, mid)) = q.get(read[k]) {
                    if waiting(&self.msgs, seq, mid) {
                        if next.is_none_or(|(s, _)| seq < s) {
                            next = Some((seq, mid));
                        }
                        break;
                    }
                    read[k] += 1; // stale: drop
                }
            }
            let Some((seq, mid)) = next else {
                break Ok(());
            };
            let granted = match self.try_grant(mid, now) {
                Ok(g) => g,
                Err(e) => break Err(e),
            };
            // the message heads every list it shares with the others
            for k in 0..3 {
                let q = &mut lists[k].0;
                if q.get(read[k]).is_some_and(|&(s, _)| s == seq) {
                    if !granted {
                        q[write[k]] = q[read[k]];
                        write[k] += 1;
                    }
                    read[k] += 1;
                }
            }
        };
        for (k, l) in lists.iter_mut().enumerate() {
            l.0.drain(write[k]..read[k]);
        }
        let [out, inp, pooled] = lists;
        self.waits.out[src] = out;
        self.waits.inp[dst] = inp;
        match pool {
            Some(Pool::Bus) => self.waits.net = pooled,
            Some(Pool::Wan) => self.waits.wan = pooled,
            None => {}
        }
        outcome
    }

    /// The oracle: the naive first-fit scan over every pending message
    /// in initiation order. Full-fidelity replays never recycle message
    /// slots, so ids are initiation order and the message table itself
    /// is the pending queue; `scan_from` skips its settled prefix.
    fn scan_all(&mut self, now: Time) -> Result<(), SimError> {
        debug_assert!(!self.recycle, "the reference scan needs dense ids");
        while self
            .msgs
            .get(self.scan_from)
            .is_some_and(|m| m.state != MsgState::Pending)
        {
            self.scan_from += 1;
        }
        for mid in self.scan_from..self.msgs.len() {
            let m = &self.msgs[mid];
            if m.state == MsgState::Pending
                && !(m.mode == SendMode::Rendezvous && m.paired.is_none())
            {
                self.try_grant(mid, now)?;
            }
        }
        Ok(())
    }

    /// One resource-acquire attempt (counted in `grant_steps`); on
    /// success the transfer starts at `now`.
    fn try_grant(&mut self, mid: usize, now: Time) -> Result<bool, SimError> {
        self.grant_steps += 1;
        let (src, dst, link) = {
            let m = &self.msgs[mid];
            (m.src, m.dst, m.link)
        };
        let acquired = match link {
            Link::Intra => true,
            Link::Net => self.resources.try_acquire(src, dst),
            Link::Wan => self.resources.try_acquire_wan(src, dst),
        };
        if acquired {
            self.start_transfer(mid, now)?;
        }
        Ok(acquired)
    }
}
