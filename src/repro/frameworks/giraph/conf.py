"""Giraph worker configuration."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from ...devices.base import Device


class GiraphMode(enum.Enum):
    #: Giraph-OOC: heap in DRAM, overflow offloaded to the device
    OOC = "ooc"
    #: edges and messages tagged for H2
    TERAHEAP = "teraheap"


@dataclass
class GiraphConf:
    """Worker-level knobs (Table 4 configurations)."""

    mode: GiraphMode = GiraphMode.OOC
    #: device backing the out-of-core store (OOC mode)
    device: Optional[Device] = None
    #: issue h2_move() hints (Figure 9a ablation switches this off)
    use_move_hint: bool = True
