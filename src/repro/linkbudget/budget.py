"""End-to-end link budget: geometry + weather + hardware -> data rate.

This is the paper's Sec. 3.2 pipeline: free-space path loss from slant
range (Eq. 1), ITU rain/cloud/gas attenuation from the weather forecast,
static hardware terms, then Es/N0 through the DVB-S2 ACM table to a
predicted bitrate.  ``LinkBudget.evaluate`` is the single function the
scheduler calls per (satellite, station, time) edge.

Calibration note: the satellite radio defaults follow the Planet
high-speed-radio description the paper cites [10] -- X-band, six parallel
channels, ~1.6 Gbps aggregate at the best 4 m-dish link.  A 1 m DGS dish
then lands near one-tenth of that per-station throughput, reproducing the
paper's stated 10x baseline-to-DGS node ratio.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.linkbudget.antennas import AntennaSpec, ReceiverSpec
from repro.linkbudget.dvbs2 import (
    DVBS2_MODCODS,
    ESN0_THRESHOLDS_DB,
    ModCod,
    SPECTRAL_EFFICIENCIES,
    best_modcod,
    best_modcod_indices,
)
from repro.linkbudget.fspl import (
    free_space_path_loss_db,
    free_space_path_loss_db_batch,
)
from repro.linkbudget.itu import (
    cloud_attenuation_db,
    gaseous_attenuation_db,
    rain_attenuation_db,
    slant_attenuation_db_batch,
)
from repro.orbits.constants import BOLTZMANN_DBW

#: Ideal Es/N0 threshold per MODCOD index, then the ``-100.0`` sentinel
#: an open link (index ``-1``) carries.
_ESN0_THRESHOLDS_OR_OPEN_DB = np.append(ESN0_THRESHOLDS_DB, -100.0)


@dataclass(frozen=True)
class RadioConfig:
    """The satellite transmit side of the link.

    ``channels`` is how many parallel frequency/polarization channels the
    spacecraft radio can emit; a contact uses
    ``min(radio.channels, receiver.channels)`` of them.  The transmitter is
    power-limited: ``total_eirp_dbw`` is split evenly across the active
    channels, so a single-channel DGS node receives the full EIRP on its
    one channel while a 6-channel baseline contact pays ~7.8 dB per channel
    for its parallelism.  This is what makes the baseline's aggregate
    advantage ~10x rather than 6 x (12 dB of dish) x.
    """

    frequency_ghz: float = 8.2  # X-band EO downlink
    #: Calibrated so a 4 m 6-channel baseline contact peaks at ~1.6 Gbps
    #: aggregate -- the best known published rate [10] -- and a 1 m DGS
    #: node peaks near 150 Mbps, putting the baseline near the paper's
    #: stated 10x median-node-throughput multiple.
    total_eirp_dbw: float = 10.5
    symbol_rate_baud: float = 75e6
    channels: int = 6
    polarization: str = "circular"

    def eirp_dbw_per_channel(self, active_channels: int) -> float:
        """EIRP available to each of ``active_channels`` parallel channels."""
        if not 1 <= active_channels <= self.channels:
            raise ValueError(
                f"active channels must be 1..{self.channels}, got {active_channels}"
            )
        return self.total_eirp_dbw - 10.0 * math.log10(active_channels)

    def __post_init__(self) -> None:
        if self.frequency_ghz <= 0:
            raise ValueError("frequency must be positive")
        if self.symbol_rate_baud <= 0:
            raise ValueError("symbol rate must be positive")
        if self.channels < 1:
            raise ValueError("channels must be >= 1")


@dataclass(frozen=True)
class LinkResult:
    """Everything the budget predicts for one link at one instant."""

    esn0_db: float
    modcod: ModCod | None
    bitrate_bps: float  # aggregate over active channels
    active_channels: int
    fspl_db: float
    rain_db: float
    cloud_db: float
    gas_db: float

    @property
    def closes(self) -> bool:
        """True when at least the most robust MODCOD is supported."""
        return self.modcod is not None

    @property
    def total_atmospheric_db(self) -> float:
        return self.rain_db + self.cloud_db + self.gas_db


@dataclass(frozen=True)
class BatchLinkResult:
    """Per-pair arrays of everything :meth:`LinkBudget.evaluate` predicts.

    ``modcod_index`` is the DVB-S2 table index (``-1`` where no MODCOD
    closes); ``required_esn0_db`` carries the sentinel ``-100.0`` there,
    matching :class:`ContactEdge`'s default.
    """

    esn0_db: np.ndarray
    modcod_index: np.ndarray
    bitrate_bps: np.ndarray
    required_esn0_db: np.ndarray
    fspl_db: np.ndarray
    rain_db: np.ndarray
    cloud_db: np.ndarray
    gas_db: np.ndarray

    @property
    def closes(self) -> np.ndarray:
        """Boolean mask: which pairs support at least QPSK 1/4."""
        return self.modcod_index >= 0

    def modcod_at(self, position: int) -> ModCod | None:
        """The scalar MODCOD object for one element (None when open)."""
        index = int(self.modcod_index[position])
        return DVBS2_MODCODS[index] if index >= 0 else None


@dataclass
class LinkBudget:
    """A calculator binding one satellite radio to one ground receiver."""

    radio: RadioConfig
    receiver: ReceiverSpec
    acm_margin_db: float = 1.0
    #: Static per-pair calibration term (paper: "hardware dependent loss is
    #: static ... and can be calibrated for").  Positive values are losses.
    hardware_calibration_db: float = 0.0
    #: Account pilot-symbol overhead via the framing layer (EN 302 307
    #: PLFRAME structure) instead of the ideal Table-13 efficiency.
    pilots: bool = False

    def esn0_db(
        self,
        range_km: float,
        elevation_deg: float,
        station_latitude_deg: float = 45.0,
        rain_rate_mm_h: float = 0.0,
        cloud_water_kg_m2: float = 0.0,
        station_altitude_km: float = 0.0,
    ) -> LinkResult:
        """Predict Es/N0 and the resulting DVB-S2 operating point.

        A link below the horizon (elevation <= 0) never closes, regardless
        of hardware.
        """
        freq = self.radio.frequency_ghz
        fspl = free_space_path_loss_db(range_km, freq)
        rain = rain_attenuation_db(
            rain_rate_mm_h, freq, elevation_deg,
            station_latitude_deg, station_altitude_km,
            self.radio.polarization,
        )
        cloud = cloud_attenuation_db(cloud_water_kg_m2, freq, elevation_deg)
        gas = gaseous_attenuation_db(freq, elevation_deg)
        channels = min(self.radio.channels, self.receiver.channels)
        cn0_dbhz = (
            self.radio.eirp_dbw_per_channel(channels)
            + self.receiver.g_over_t_db(freq)
            - fspl
            - rain
            - cloud
            - gas
            - self.receiver.antenna.pointing_loss_db
            - self.receiver.implementation_loss_db
            - self.hardware_calibration_db
            - BOLTZMANN_DBW
        )
        esn0 = cn0_dbhz - 10.0 * math.log10(self.radio.symbol_rate_baud)
        if elevation_deg <= 0.0:
            return LinkResult(esn0, None, 0.0, 0, fspl, rain, cloud, gas)
        modcod = best_modcod(esn0, self.acm_margin_db)
        bitrate = 0.0
        if modcod is not None:
            if self.pilots:
                from repro.linkbudget.dvbs2_framing import FrameSpec

                spec = FrameSpec(modcod, pilots=True)
                bitrate = spec.net_bitrate_bps(self.radio.symbol_rate_baud) * channels
            else:
                bitrate = modcod.bitrate_bps(self.radio.symbol_rate_baud) * channels
        return LinkResult(esn0, modcod, bitrate, channels if modcod else 0,
                          fspl, rain, cloud, gas)

    def evaluate(self, *args, **kwargs) -> LinkResult:
        """Alias for :meth:`esn0_db`; kept for readable call sites."""
        return self.esn0_db(*args, **kwargs)

    # -- batched path ------------------------------------------------------

    def _bitrate_table_bps(self) -> np.ndarray:
        """Aggregate bitrate per MODCOD index for this radio/receiver pair.

        One trailing 0.0 follows the table: the rate of index ``-1``.
        """
        table = getattr(self, "_bitrate_table_cache", None)
        if table is not None:
            return table
        channels = min(self.radio.channels, self.receiver.channels)
        if self.pilots:
            from repro.linkbudget.dvbs2_framing import FrameSpec

            table = np.array(
                [
                    FrameSpec(mc, pilots=True).net_bitrate_bps(
                        self.radio.symbol_rate_baud
                    ) * channels
                    for mc in DVBS2_MODCODS
                ]
            )
        else:
            table = SPECTRAL_EFFICIENCIES * self.radio.symbol_rate_baud \
                * channels
        table = np.append(table, 0.0)
        self._bitrate_table_cache = table
        return table

    def evaluate_batch(
        self,
        range_km: np.ndarray,
        elevation_deg: np.ndarray,
        *,
        rain_height_km: np.ndarray | float,
        rain_rate_mm_h: np.ndarray | float = 0.0,
        cloud_water_kg_m2: np.ndarray | float = 0.0,
    ) -> BatchLinkResult:
        """Vectorized :meth:`evaluate` over per-pair arrays.

        ``range_km`` and ``elevation_deg`` are the pair rows: 1-D, of one
        shape.  The other arguments are per row or scalars broadcast to
        the rows, never wider.  Frequency, hardware terms, and the ACM
        margin are fixed by this budget instance, exactly as in the
        scalar path.  Results match :meth:`evaluate` element-wise to
        float rounding (NumPy vs libm transcendentals, ~1e-12 dB); a
        MODCOD choice can differ only for an Es/N0 within that distance
        of a table threshold.

        The station enters only through the rain height above it,
        ``rain_height_km``:
        :func:`~repro.linkbudget.itu.rain_height_above_station_km` of
        the scalar path's latitude and altitude, which depends on the
        station alone, so callers pricing a fixed network evaluate it
        once per station.  Every output is element-wise in the rows, so
        pricing a gathered subset of rows gives the gathered subset of
        the results.
        """
        elevation_deg = np.asarray(elevation_deg, dtype=float)
        freq = self.radio.frequency_ghz
        fspl = free_space_path_loss_db_batch(range_km, freq)
        rain, cloud, gas = slant_attenuation_db_batch(
            rain_rate_mm_h, cloud_water_kg_m2, freq, elevation_deg,
            rain_height_km, self.radio.polarization,
        )
        # Per-instance scalar constants (EIRP + G/T and the symbol-rate
        # term): pure functions of the frozen radio/receiver fields, so
        # computing them once and reusing the exact floats is
        # bit-identical to re-deriving them every call.
        scalars = getattr(self, "_cn0_scalar_cache", None)
        if scalars is None:
            channels = min(self.radio.channels, self.receiver.channels)
            scalars = (
                self.radio.eirp_dbw_per_channel(channels)
                + self.receiver.g_over_t_db(freq),
                10.0 * math.log10(self.radio.symbol_rate_baud),
            )
            self._cn0_scalar_cache = scalars
        # Same accumulation order as the scalar path, for bit-stability
        # (in place: every term has the rows' shape).
        cn0_dbhz = scalars[0] - fspl
        cn0_dbhz -= rain
        cn0_dbhz -= cloud
        cn0_dbhz -= gas
        cn0_dbhz -= self.receiver.antenna.pointing_loss_db
        cn0_dbhz -= self.receiver.implementation_loss_db
        cn0_dbhz -= self.hardware_calibration_db
        cn0_dbhz -= BOLTZMANN_DBW
        esn0 = cn0_dbhz - scalars[1]
        index = best_modcod_indices(esn0, self.acm_margin_db)
        index = np.where(elevation_deg <= 0.0, -1, index)
        # Index -1 (no MODCOD closes) reads each table's trailing
        # open-link entry: 0 bps, and the -100 dB threshold sentinel.
        bitrate = self._bitrate_table_bps()[index]
        required = _ESN0_THRESHOLDS_OR_OPEN_DB[index]
        return BatchLinkResult(
            esn0_db=esn0,
            modcod_index=index,
            bitrate_bps=bitrate,
            required_esn0_db=required,
            fspl_db=fspl,
            rain_db=rain,
            cloud_db=cloud,
            gas_db=gas,
        )


def dgs_node_receiver(channels: int = 1) -> ReceiverSpec:
    """The paper's low-complexity DGS node: 1 m dish, single channel.

    A well-fed 1 m offset dish with a modern LNB: 65% efficiency, 0.9 dB
    noise figure.  Together with the power-split advantage of a
    single-channel link this puts a baseline station at ~10x the median
    DGS-node throughput, the paper's stated calibration point.
    """
    return ReceiverSpec(
        antenna=AntennaSpec(diameter_m=1.0, efficiency=0.65, pointing_loss_db=0.4),
        noise_figure_db=0.9,
        channels=channels,
    )


def baseline_receiver() -> ReceiverSpec:
    """The paper's baseline: high-end receiver, 4 m dish, 6 channels [10]."""
    return ReceiverSpec(
        antenna=AntennaSpec(diameter_m=4.0, efficiency=0.65, pointing_loss_db=0.3),
        noise_figure_db=0.8,
        channels=6,
    )
