"""Turn-key scenario implementations with their analytic oracles."""

from .flrw import (FlrwConfig, FlrwResult, asymptotic_beta_squared,
                   flrw_generic_run, flrw_run, flrw_spacetime,
                   flrw_unconfined_limit)
from .gw_cavity import (GwCavityConfig, GwResult, gw_cavity_run,
                        gw_delta_coupling, gw_exact_driver,
                        gw_nonperturbative_pair, gw_spacetime, gw_static_basis)

__all__ = [
    "FlrwConfig", "FlrwResult", "asymptotic_beta_squared", "flrw_generic_run",
    "flrw_run", "flrw_spacetime", "flrw_unconfined_limit",
    "GwCavityConfig", "GwResult", "gw_cavity_run", "gw_delta_coupling",
    "gw_exact_driver", "gw_nonperturbative_pair", "gw_spacetime",
    "gw_static_basis",
]
