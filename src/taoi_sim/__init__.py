"""Discrete-event V2V broadcast simulator with age-aware rate control.

Vehicles on a closed multi-lane loop broadcast basic safety messages over
a shared 802.11p-style channel. Three interval policies are provided: a
fixed 10 Hz reference, an Age-of-Information feedback controller, and a
tracked-age (TAoI) controller that spends channel time only on vehicles
whose motion is actually hard to extrapolate. An exact-arithmetic oracle
replays tiny slotted scenarios and brute-forces optimal schedules for
cross-checking the event loop.
"""
