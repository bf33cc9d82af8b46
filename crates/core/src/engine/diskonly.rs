//! The DISK baseline: traditional local-disk paging.

use std::collections::HashSet;

use rmp_types::{Page, PageId, Result, RmpError, ServerId};

use crate::engine::{Ctx, Engine, Reading, Writing};
use crate::recovery::RecoveryStep;

/// Pass-through to the local disk — the configuration the paper's figures
/// label DISK, where "the page transfer requests go directly from the DEC
/// OSF/1 kernel to the disk driver without the intervention of our pager".
#[derive(Debug, Default)]
pub struct DiskOnly {
    present: HashSet<PageId>,
}

impl Engine for DiskOnly {
    fn begin_page_out(&mut self, ctx: &mut Ctx<'_>, id: PageId, page: &Page) -> Writing {
        Writing::Done(ctx.disk_write(id, page).map(|()| {
            self.present.insert(id);
        }))
    }

    /// The disk is the only copy: reading around a server reads it too.
    fn begin_page_in(&mut self, ctx: &mut Ctx<'_>, id: PageId, _: Option<ServerId>) -> Reading {
        Reading::Done(match self.present.contains(&id) {
            true => ctx.disk_read(id),
            false => Err(RmpError::PageNotFound(id)),
        })
    }

    fn free(&mut self, ctx: &mut Ctx<'_>, id: PageId) -> Result<()> {
        if self.present.remove(&id) {
            ctx.disk_free(id)?;
        }
        Ok(())
    }

    fn contains(&self, id: PageId) -> bool {
        self.present.contains(&id)
    }

    fn plan_recovery(&mut self, _ctx: &mut Ctx<'_>, _server: ServerId) -> Result<u64> {
        // Disk paging involves no remote servers; a workstation crash
        // elsewhere loses nothing of ours.
        Ok(0)
    }

    fn recovery_step(
        &mut self,
        _ctx: &mut Ctx<'_>,
        _server: ServerId,
        _page_budget: usize,
    ) -> Result<RecoveryStep> {
        Ok(RecoveryStep::default())
    }

    fn migrate_from(&mut self, _ctx: &mut Ctx<'_>, _server: ServerId) -> Result<u64> {
        Ok(0)
    }

    fn rebalance(&mut self, _ctx: &mut Ctx<'_>) -> Result<u64> {
        Ok(0)
    }
}
