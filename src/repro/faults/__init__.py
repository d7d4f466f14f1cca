"""Failure handling and dynamic membership (paper Section 5).

- :mod:`repro.faults.detector` — who-has census bookkeeping (used by the
  regeneration layer, :mod:`repro.core.regeneration`);
- :mod:`repro.faults.membership` — versioned ring views and the
  authoritative membership service for asynchronous join/leave.
"""

from repro.faults.detector import Census
from repro.faults.membership import MembershipService, RingView

__all__ = ["Census", "MembershipService", "RingView"]
