"""Exception types shared across the package, and the one field check that
raises a ConfigError naming its `section.field`."""


class ConfigError(ValueError):
    """A configuration value is missing, malformed, or inconsistent."""


class ScenarioError(RuntimeError):
    """Scenario construction failed (placement constraints unsatisfiable)."""


class StuckError(RuntimeError):
    """The planner found no feasible cell to move to."""


def require(section: str, params, ok, requirement: str, *names: str) -> None:
    """Raise ConfigError naming the first field in `names` whose value fails `ok`."""
    for name in names:
        value = getattr(params, name)
        if not ok(value):
            raise ConfigError(f"{section}.{name} must be {requirement}, got {value!r}")
