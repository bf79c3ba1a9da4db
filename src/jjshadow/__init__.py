"""Shadow-evaporation junction uniformity toolkit.

Forward geometric model of deposited electrode widths and overlap areas,
wafer layout construction, synthetic conductance generation, the filtering
and statistics pipeline, SEM-style image metrology with a rendering
oracle, and design pre-compensation.
"""

__version__ = "0.1.0"
