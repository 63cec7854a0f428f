"""RIS-aided MIMO-OFDM uplink positioning pipeline.

Modules
-------
geometry     array steering, node geometry, parameter maps
channel      system configuration, pilots, the forward model, synthesis
coarse_est   sparse-recovery + DFT coarse channel estimation
sage         damped Fisher-scoring joint likelihood refinement
positioning  closed-form pose recovery and weighted LM refinement
bounds       Fisher information, CRLB, position/orientation bounds
harness      seeded Monte Carlo experiments and CSV emission
"""

from . import bounds, channel, coarse_est, geometry, positioning, sage
from .params import ChannelParams, PositionParams

__all__ = [
    "bounds", "channel", "coarse_est", "geometry", "positioning", "sage",
    "ChannelParams", "PositionParams",
]
