//! The basic PARITY policy: RAID-style fixed parity groups.

use rmp_parity::xor::xor_reduce;
use rmp_parity::{basic::BasicSlot, BasicParityMap};
use rmp_types::{Page, PageId, Result, RmpError, ServerId, StoreKey};

use std::collections::{HashSet, VecDeque};

use crate::engine::{rebuild_step, Ctx, Engine, Reading, Unit, Writing};
use crate::recovery::RecoveryStep;

/// Fixed-layout parity (Section 2.2, "Parity"): page `(i, j)` is bound to
/// server `i`, stripe slot `j`; parity page `j` covers all `j`th pages.
/// Every pageout costs two transfers — the page to its server and the
/// `old XOR new` delta to the parity server — and the parity memory
/// overhead is `1/S`.
///
/// Recovery rebuilds lost pages *in place*: the crashed workstation must
/// rejoin (rebooted, empty) before recovery runs, mirroring a RAID
/// rebuild onto a replaced disk. This rigidity is exactly why the paper
/// moves on to parity logging.
///
/// What is this engine's alone is the layout and the server-side delta
/// protocol; reading a stripe's pieces, the holder check and the
/// recovery stepping are the shared [`Ctx`] and [`rebuild_step`].
pub struct BasicParity {
    map: BasicParityMap,
    rebuild: VecDeque<StripeRebuild>,
}

/// One planned rebuild item: the XOR of `pieces` is the page lost under
/// `key` on the crashed server.
struct StripeRebuild {
    key: StoreKey,
    /// For a lost data page, its stripe's survivors plus the parity page;
    /// for a lost parity page, every member of its stripe.
    pieces: Vec<Unit>,
    parity: bool,
}

impl BasicParity {
    /// Creates the engine over `data_servers` plus `parity_server`.
    ///
    /// # Errors
    ///
    /// Propagates [`BasicParityMap::new`] configuration errors.
    pub fn new(data_servers: Vec<ServerId>, parity_server: ServerId) -> Result<Self> {
        Ok(BasicParity {
            map: BasicParityMap::new(data_servers, parity_server)?,
            rebuild: VecDeque::new(),
        })
    }

    /// Recomputes the parity page `parity_key` from the current contents
    /// of its stripe members and overwrites it idempotently.
    ///
    /// This is the repair path for the XOR protocol's retry hazard: both
    /// wire steps of a pageout are *non-idempotent*. A retried
    /// `PageOutDelta` whose first attempt was applied but whose reply was
    /// lost echoes a zero delta (old == new on the second attempt), and a
    /// retried `XorInto` folds its delta in twice — cancelling it. Either
    /// way the parity silently diverges from the data it covers, which a
    /// later reconstruction of a *sibling* page would turn into garbage
    /// bytes. Whenever a delta/XOR call was retried or failed, the caller
    /// abandons incremental maintenance for this stripe and rebuilds its
    /// parity from ground truth instead. Costs `S` fetches (one gather)
    /// plus one store — the price of certainty, paid only on
    /// ambiguous retries.
    fn resync_parity(&mut self, ctx: &mut Ctx<'_>, parity_key: StoreKey) -> Result<()> {
        // The parity page of stripe `j` is stored under key `j`.
        let members = self.map.stripe_members(parity_key.0, None);
        let parity = xor_reduce(&ctx.gather(&members)?);
        ctx.pool
            .page_out(self.map.parity_server(), parity_key, &parity)?;
        ctx.stats.net_parity_transfers += 1;
        ctx.count("engine_parity_resyncs_total");
        Ok(())
    }

    /// Ships `page` and folds its `old XOR new` delta into the parity
    /// page: two calls, the second needing the first's reply.
    fn store(&mut self, ctx: &mut Ctx<'_>, id: PageId, page: &Page) -> Result<()> {
        // Overwrites reuse the page's frame; only first-time assignments
        // consume a grant (otherwise rewrites leak the server's grant
        // budget and eventually hit a spurious denial).
        let is_new = self.map.location(id).is_none();
        let slot = self.map.assign(id);
        let (server, key) = slot.unit;
        // Step 1: ship the page; the server answers with old XOR new.
        if is_new {
            ctx.pool.reserve_frame(server)?;
        }
        let (delta, retried) = match ctx.pool.page_out_delta(server, key, page) {
            Ok(reply) => reply,
            Err(e) => {
                // Undo the reservation or the grant leaks on every
                // failed first-time store — and the assignment, or the
                // stripe names a member its server may never have stored,
                // and every rebuild that gathers it stops on the miss. A
                // store that did land is a stray the parity never covered:
                // its key is never assigned again.
                if is_new {
                    ctx.pool.return_frame(server);
                    self.map.free(id);
                }
                return Err(e);
            }
        };
        ctx.stats.net_data_transfers += 1;
        if retried {
            // The delta call was retried: an earlier attempt may already
            // have stored the page, making the echoed delta zero (old ==
            // new) while the real old→new change never reached the
            // parity. The delta cannot be trusted — rebuild the stripe's
            // parity from its current members.
            return self.resync_parity(ctx, slot.parity_key);
        }
        // Step 2: fold the delta into the parity page. The client must not
        // drop `page` before this completes (footnote in Section 2.2) —
        // trivially satisfied here because the call is synchronous.
        match ctx
            .pool
            .xor_into(self.map.parity_server(), slot.parity_key, &delta)
        {
            Ok(false) => {
                ctx.stats.net_parity_transfers += 1;
                Ok(())
            }
            // Retried (the delta may have been folded in twice, which
            // cancels it) or failed (it may or may not have been applied
            // before the failure): the parity state is unknowable from
            // here, so recompute it.
            _ => self.resync_parity(ctx, slot.parity_key),
        }
    }

    /// Rebuilds page `id`, whose slot is `slot`, from the rest of its
    /// stripe and the parity page — only the requested page; the full
    /// column rebuild runs separately.
    fn reconstruct(&self, ctx: &mut Ctx<'_>, id: PageId, slot: BasicSlot) -> Result<Page> {
        let mut pieces = self.map.stripe_members(slot.slot, Some(slot.unit.0));
        pieces.push((self.map.parity_server(), slot.parity_key));
        let page = xor_reduce(&ctx.fetch_group(&pieces, &format_args!("stripe of {id}"))?);
        ctx.count("engine_parity_reconstructions_total");
        Ok(page)
    }
}

impl Engine for BasicParity {
    fn begin_page_out(&mut self, ctx: &mut Ctx<'_>, id: PageId, page: &Page) -> Writing {
        Writing::Done(self.store(ctx, id, page))
    }

    fn begin_page_in(&mut self, ctx: &mut Ctx<'_>, id: PageId, avoid: Option<ServerId>) -> Reading {
        let Some(&slot) = self.map.location(id) else {
            return Reading::Done(Err(RmpError::PageNotFound(id)));
        };
        let server = slot.unit.0;
        match avoid {
            Some(dead) if server == dead || !ctx.pool.alive(server) => {
                Reading::Done(self.reconstruct(ctx, id, slot))
            }
            _ => ctx.begin_read(slot.unit, true),
        }
    }

    fn free(&mut self, ctx: &mut Ctx<'_>, id: PageId) -> Result<()> {
        let Some(&slot) = self.map.location(id) else {
            return Ok(());
        };
        let ((server, key), parity_key) = (slot.unit, slot.parity_key);
        // Fetch the dying page's content for the parity cancel while it
        // still exists, but release it *before* touching the parity: the
        // old order (cancel, then free) could fail after the cancel and
        // leave a still-stored page excluded from its parity — silent
        // garbage for every sibling reconstruction. Freeing first keeps
        // the failure states consistent: either the page survives with
        // its parity intact, or it is gone and the parity gets repaired
        // below.
        let old = ctx.pool.page_in(server, key)?;
        ctx.stats.net_fetches += 1;
        ctx.pool.free(server, key)?;
        self.map.free(id);
        let cancel = ctx
            .pool
            .xor_into(self.map.parity_server(), parity_key, &old);
        if let Ok(false) = cancel {
            ctx.stats.net_parity_transfers += 1;
            return Ok(());
        }
        // Retried or failed cancel: the parity may hold the delta zero,
        // one, or two times. Rebuild it from the members that remain
        // (the map no longer lists the freed page).
        self.resync_parity(ctx, parity_key)
    }

    fn contains(&self, id: PageId) -> bool {
        self.map.location(id).is_some()
    }

    fn read_units(&self, id: PageId) -> Option<&[Unit]> {
        Some(std::slice::from_ref(&self.map.location(id)?.unit))
    }

    fn plan_recovery(&mut self, ctx: &mut Ctx<'_>, server: ServerId) -> Result<u64> {
        if !ctx.pool.alive(server) {
            return Err(RmpError::Unrecoverable(format!(
                "basic parity rebuilds in place: reconnect {server} (rebooted) first"
            )));
        }
        self.rebuild = if server == self.map.parity_server() {
            // Parity-server crash: recompute every parity page from its
            // members.
            let stripes = self.map.parity_rebuild_plan().into_iter();
            stripes
                .map(|(key, pieces)| StripeRebuild {
                    key,
                    pieces,
                    parity: true,
                })
                .collect()
        } else {
            // Only what the server lost: a member it still holds — it was
            // declared dead without losing its memory — is the page, and a
            // rebuild would overwrite it with whatever a write the parity
            // never heard of (one whose delta failed) left in its stripe.
            // The rebuild's grants ride the listing.
            let held: HashSet<StoreKey> =
                ctx.pool.list_keys_granting(server)?.into_iter().collect();
            let lost = self.map.recovery_plan(server)?.into_iter();
            lost.filter(|plan| !held.contains(&plan.lost.unit.1))
                .map(|mut plan| {
                    plan.fetch.push(plan.parity);
                    StripeRebuild {
                        key: plan.lost.unit.1,
                        pieces: plan.fetch,
                        parity: false,
                    }
                })
                .collect()
        };
        Ok(self.rebuild.len() as u64)
    }

    fn recovery_step(
        &mut self,
        ctx: &mut Ctx<'_>,
        server: ServerId,
        page_budget: usize,
    ) -> Result<RecoveryStep> {
        rebuild_step(&mut self.rebuild, page_budget, |claimed, step| {
            while let Some(head) = claimed.front() {
                // One gather for the chunk: every piece of every stripe.
                let stripes: Vec<&[Unit]> = claimed.iter().map(|w| &w.pieces[..]).collect();
                let head = format_args!("stripe {} of {server}", head.key);
                let rebuilt: Vec<Page> = (ctx.fetch_groups(&stripes, &head)?.iter())
                    .map(xor_reduce)
                    .collect();
                // One store wave for the chunk, onto the rebooted server.
                let stores: Vec<(Unit, &Page)> = (claimed.iter().zip(&rebuilt))
                    .map(|(work, page)| ((server, work.key), page))
                    .collect();
                let (landed, stopped) = ctx.ship_in_order(&stores);
                for work in claimed.drain(..landed) {
                    step.transfers += work.pieces.len() as u64 + 1;
                    if work.parity {
                        ctx.stats.net_parity_transfers += 1;
                        step.parity_rebuilt += 1;
                    } else {
                        ctx.stats.net_data_transfers += 1;
                        step.pages_rebuilt += 1;
                    }
                }
                stopped?;
            }
            Ok(())
        })
    }

    fn migrate_from(&mut self, _ctx: &mut Ctx<'_>, _server: ServerId) -> Result<u64> {
        Err(RmpError::Unsupported(
            "basic parity binds pages to fixed stripes and cannot migrate",
        ))
    }

    fn rebalance(&mut self, _ctx: &mut Ctx<'_>) -> Result<u64> {
        Ok(0)
    }
}
